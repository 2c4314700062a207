//! Hourly monitoring (paper §VI.A) as a *networked* monitor: a loopback
//! `hrv-service` gateway is started in-process, and the hour of beats
//! flows to it as a real TCP client would send them — framed
//! `PushBeats` batches through session admission into the fleet, which
//! analyses each batch before acknowledging it. Along the way the client switches the
//! stream to the paper's pruned operating mode over the wire
//! (`SetQuality`), reads live reports, and finally drains the gateway;
//! the streamed result is checked against the batch conventional system.
//!
//! Run with: `cargo run --release --example holter_monitor`

use hrv_psa::prelude::*;
use hrv_psa::service::GatewayConfig;

fn main() -> Result<(), ServiceError> {
    // One hour of sinus-arrhythmia RR data.
    let record = SyntheticDatabase::new(16).record(3, Condition::SinusArrhythmia, 3600.0);
    println!(
        "1-hour recording: {} beats, mean HR {:.1} bpm",
        record.rr.len(),
        record.rr.mean_hr_bpm()
    );

    // Reference: the batch conventional system over the whole recording.
    let conventional = PsaSystem::new(PsaConfig::conventional()).map_err(ServiceError::from)?;
    let reference = conventional
        .analyze(&record.rr)
        .map_err(ServiceError::from)?;

    // The gateway, on an ephemeral loopback port.
    let handle = Gateway::start(GatewayConfig::default())?;
    println!("gateway listening on {}", handle.local_addr());
    let mut client = ServiceClient::connect(handle.local_addr())?;
    client.open_stream(3)?;
    // The wearable's kernel budget: the paper's 60 % pruned static mode,
    // switched over the wire.
    let backend = client.set_quality(3, ApproximationMode::BandDropSet3)?;
    println!("stream 3 open, operating mode {backend}");

    // Reconstruct the beat-time feed a delineator would emit and send it
    // in one-minute `PushBeats` batches, as a buffering sensor node
    // would; the gateway derives and gates the RR intervals server-side.
    let first_beat = record.rr.times()[0] - record.rr.intervals()[0];
    let mut beats = vec![first_beat];
    beats.extend_from_slice(record.rr.times());
    let mut minutes = 0usize;
    let mut batch_start = 0usize;
    for (i, &t) in beats.iter().enumerate() {
        if t >= (minutes + 1) as f64 * 60.0 || i == beats.len() - 1 {
            let pushed = client.push_beats(3, &beats[batch_start..=i])?;
            batch_start = i + 1;
            minutes += 1;
            // Every ~15 minutes of stream time, read a live report.
            if minutes.is_multiple_of(15) {
                let report = client.read_report(3)?;
                println!(
                    "after {minutes:>3} min: {:>3} windows analysed, {:>2} flagged, \
                     last batch {} beats accepted",
                    report.windows, report.arrhythmia_windows, pushed.accepted
                );
            }
        }
    }

    // Drain the gateway: trailing windows flush, final reports come back
    // id-ordered.
    let metrics = client.metrics()?;
    let reports = client.shutdown()?;
    handle.wait()?;
    let report = &reports[0];
    println!(
        "\nfinal report: {} windows, {} arrhythmia-flagged, backend {}, ingest {:?}",
        report.windows, report.arrhythmia_windows, report.backend, report.ingest
    );

    // The streamed hour matches the batch conventional system's window
    // count, and detection is preserved under the pruned kernel.
    assert_eq!(report.windows as usize, reference.per_window.len());
    let batch_flagged = reference
        .per_window
        .iter()
        .filter(|(_, p)| p.lf_hf_ratio() < 1.0)
        .count();
    println!(
        "batch reference: {} windows, {batch_flagged} flagged, hour-average LF/HF {:.3}",
        reference.per_window.len(),
        reference.lf_hf_ratio()
    );
    assert!(
        report.arrhythmia_windows as usize >= batch_flagged.saturating_sub(2)
            && report.arrhythmia_windows as usize <= batch_flagged + 2,
        "pruned streamed detection must track the exact batch reference"
    );

    // One shared telemetry path: the same registry the wire exposes.
    let interesting = metrics
        .lines()
        .filter(|l| {
            l.starts_with("hrv_fleet_windows_total")
                || l.starts_with("hrv_kernel_builds_total")
                || l.starts_with("hrv_service_samples_admitted_total")
        })
        .collect::<Vec<_>>()
        .join("\n");
    println!("\ntelemetry excerpt:\n{interesting}");
    Ok(())
}
