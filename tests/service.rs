//! Loopback integration tests of the `hrv-service` gateway: concurrent
//! clients streaming through the framed wire protocol, shutdown-drain
//! parity against the offline fleet, backpressure, admission control,
//! and property tests of the frame codec.

use hrv_psa::prelude::*;
use hrv_psa::service::{
    FramePoll, FrameReader, Pushed, Reply, Request, MAX_FRAME, PROTOCOL_VERSION,
};
use hrv_psa::stream::cohort_samples;
use proptest::prelude::*;
use std::io::Cursor;

const SEED: u64 = 2014;

fn gateway_config(max_sessions: usize, queue_capacity: usize) -> GatewayConfig {
    GatewayConfig {
        session: SessionConfig {
            max_sessions,
            queue_capacity,
        },
        ..GatewayConfig::default()
    }
}

/// The samples of one synthetic cohort member, as a client would push them.
fn member_samples(id: usize, duration: f64) -> Vec<(f64, f64)> {
    cohort_samples(SEED, id, duration)
}

#[test]
fn eight_concurrent_clients_drain_bit_identical_to_offline_fleet() {
    const STREAMS: usize = 8;
    const DURATION: f64 = 300.0;

    // Offline reference: the same cohort through an in-process fleet.
    let mut offline = FleetScheduler::new(
        PsaConfig::conventional(),
        FleetConfig {
            streams: STREAMS,
            duration: DURATION,
            seed: SEED,
            slice: 60.0,
            workers: 2,
        },
    )
    .expect("offline fleet");
    offline.run();
    let expected = offline.stream_reports();

    // The gateway, fed by one real TCP connection per stream.
    let handle = Gateway::start(gateway_config(STREAMS, 1024)).expect("gateway");
    let addr = handle.local_addr();
    std::thread::scope(|scope| {
        for id in 0..STREAMS {
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                client.open_stream(id as u64).expect("open");
                for chunk in member_samples(id, DURATION).chunks(50) {
                    let pushed = client.push_rr(id as u64, chunk).expect("push");
                    assert_eq!(pushed.accepted as usize, chunk.len());
                    assert_eq!(pushed.gated, 0);
                }
                // Dropping the connection does NOT close the session —
                // streams outlive connections until CloseStream/Shutdown.
            });
        }
    });

    let control = handle.client().expect("control client");
    let reports = control.shutdown().expect("shutdown");
    handle.wait().expect("gateway join");

    let ids: Vec<usize> = reports.iter().map(|r| r.id).collect();
    assert_eq!(ids, (0..STREAMS).collect::<Vec<_>>(), "id-ordered");
    assert_eq!(
        reports, expected,
        "drained reports must be bit-identical to the offline fleet run \
         (windows, arrhythmia flags, operation counts, ingest stats)"
    );
    assert!(reports.iter().all(|r| r.windows > 0));
}

#[test]
fn saturated_session_receives_busy_and_queue_never_grows() {
    let handle = Gateway::start(gateway_config(4, 16)).expect("gateway");
    let mut client = handle.client().expect("client");
    client.open_stream(1).expect("open");

    // A batch above the per-push bound is refused outright.
    let big: Vec<(f64, f64)> = (0..64).map(|i| (0.8 * (i + 1) as f64, 0.8)).collect();
    assert_eq!(
        client.push_rr(1, &big).unwrap_err(),
        ServiceError::Busy {
            stream: 1,
            capacity: 16
        }
    );
    // The refusal left no partial state: the same samples fit in
    // bound-sized chunks, each analysed before its reply, so nothing
    // queues between pushes.
    for chunk in big.chunks(16) {
        let pushed = client.push_rr(1, chunk).expect("push");
        assert_eq!(pushed.accepted as usize, chunk.len());
        assert_eq!(pushed.queue_depth, 0, "no queue behind the push");
    }
    let report = client.read_report(1).expect("report");
    assert_eq!(report.ingest.accepted, 64, "every sample eventually landed");

    // Telemetry counted the refusals.
    let metrics = client.metrics().expect("metrics");
    let busy_line = metrics
        .lines()
        .find(|l| l.starts_with("hrv_service_busy_total"))
        .expect("busy counter exposed");
    let busy: u64 = busy_line.split(' ').next_back().unwrap().parse().unwrap();
    assert!(
        busy >= 1,
        "at least the oversized batch was refused: {busy_line}"
    );

    drop(client);
    handle.shutdown().expect("shutdown");
}

#[test]
fn admission_control_is_enforced_over_the_wire() {
    let handle = Gateway::start(gateway_config(2, 64)).expect("gateway");
    let mut client = handle.client().expect("client");
    client.open_stream(10).expect("first");
    client.open_stream(11).expect("second");
    assert_eq!(
        client.open_stream(10).unwrap_err(),
        ServiceError::DuplicateStream(10)
    );
    assert_eq!(
        client.open_stream(12).unwrap_err(),
        ServiceError::SessionLimit { max: 2 }
    );
    assert_eq!(
        client.push_rr(99, &[(1.0, 0.8)]).unwrap_err(),
        ServiceError::UnknownStream(99)
    );
    assert_eq!(
        client.read_report(99).unwrap_err(),
        ServiceError::UnknownStream(99)
    );
    // Closing a stream frees its session slot.
    client.close_stream(10).expect("close");
    client.open_stream(12).expect("slot freed");
    // Implausible samples are gated by the fleet's ingest.
    let pushed = client
        .push_rr(11, &[(1.0, 0.8), (0.5, 0.8), (2.0, 9.0), (2.5, 0.9)])
        .expect("push");
    assert_eq!((pushed.accepted, pushed.gated), (2, 2));
    drop(client);
    handle.shutdown().expect("shutdown");
}

#[test]
fn quality_switching_and_session_persistence_across_connections() {
    let handle = Gateway::start(gateway_config(4, 1024)).expect("gateway");
    let samples = member_samples(0, 300.0);
    {
        let mut client = handle.client().expect("client");
        client.open_stream(5).expect("open");
        client
            .push_rr(5, &samples[..samples.len() / 2])
            .expect("first half");
        let backend = client
            .set_quality(5, ApproximationMode::BandDropSet3)
            .expect("switch");
        assert_eq!(backend, "wfft-haar+banddrop+prune60%");
        // Connection dropped here; the session (and its engine state)
        // must survive.
    }
    let mut client = handle.client().expect("reconnect");
    client
        .push_rr(5, &samples[samples.len() / 2..])
        .expect("second half");
    let report = client.read_report(5).expect("report");
    assert_eq!(report.backend, "wfft-haar+banddrop+prune60%");
    assert_eq!(report.ingest.accepted as usize, samples.len());
    assert!(report.windows > 0);
    // Back to exact over the wire.
    assert_eq!(
        client
            .set_quality(5, ApproximationMode::Exact)
            .expect("restore"),
        "split-radix"
    );
    let closed = client.close_stream(5).expect("close");
    assert!(
        closed.windows >= report.windows,
        "close flushes trailing windows"
    );
    assert_eq!(
        client.close_stream(5).unwrap_err(),
        ServiceError::UnknownStream(5)
    );
    drop(client);
    handle.shutdown().expect("shutdown");
}

#[test]
fn budget_governance_over_the_wire() {
    use hrv_psa::stream::StreamBudget;
    let handle = Gateway::start(gateway_config(4, 2048)).expect("gateway");
    let samples = member_samples(0, 420.0);
    let mut client = handle.client().expect("client");
    client.open_stream(9).expect("open");

    // Budget targets are validated at the gateway, not in the governor:
    // non-finite and out-of-range payloads draw a typed wire error.
    for bad in [
        StreamBudget::per_interval(f64::NAN, 4),
        StreamBudget::per_interval(f64::INFINITY, 4),
        StreamBudget::per_interval(-1.0, 4),
        StreamBudget::per_interval(1e-2, 0),
        StreamBudget::per_interval(1e-2, 4).with_battery(f64::NAN, 0.0),
        StreamBudget::per_interval(1e-2, 4).with_battery(10.0, -1.0),
    ] {
        assert!(
            matches!(
                client.set_budget(9, bad),
                Err(ServiceError::InvalidTarget(_))
            ),
            "{bad:?} must be refused"
        );
    }
    // Reading a budget before one is attached is a typed error too.
    assert!(matches!(
        client.read_budget(9),
        Err(ServiceError::Psa(_)) | Err(ServiceError::InvalidTarget(_))
    ));

    // A tight valid budget takes effect and reports its accounting.
    let budget = StreamBudget::per_interval(2e-3, 4).with_battery(20.0, 1e-5);
    let backend = client.set_budget(9, budget).expect("budget set");
    assert!(!backend.is_empty());
    client.push_rr(9, &samples).expect("replay");
    let status = client.read_budget(9).expect("status");
    assert_eq!(status.id, 9);
    assert_eq!(status.joules_per_interval, 2e-3);
    assert_eq!(status.interval_windows, 4);
    let battery = status.battery.expect("battery attached");
    assert_eq!(battery.capacity_j, 20.0);
    assert!(battery.charge_j < 20.0, "windows drew the battery down");
    let report = client.read_report(9).expect("report");
    assert!(report.windows > 0);
    assert!(report.energy_j > 0.0, "energy is charged per window");
    assert_eq!(report.battery.expect("battery").capacity_j, 20.0);
    // The tight budget held the stream below the nominal rail.
    let nominal_per_window = 2.4e-3;
    assert!(
        report.energy_j / report.windows as f64 <= nominal_per_window,
        "{} J over {} windows",
        report.energy_j,
        report.windows
    );
    // Telemetry carries the new energy/battery gauges.
    let metrics = client.metrics().expect("metrics");
    for family in [
        "hrv_fleet_charged_energy_joules",
        "hrv_fleet_battery_charge_joules",
        "hrv_fleet_governed_streams 1",
    ] {
        assert!(metrics.contains(family), "missing {family:?}");
    }
    // Unknown streams stay typed across the new messages.
    assert_eq!(
        client.set_budget(77, budget).unwrap_err(),
        ServiceError::UnknownStream(77)
    );
    assert_eq!(
        client.read_budget(77).unwrap_err(),
        ServiceError::UnknownStream(77)
    );
    drop(client);
    handle.shutdown().expect("shutdown");
}

#[test]
fn metrics_exposition_reaches_clients_over_the_wire() {
    let handle = Gateway::start(gateway_config(4, 64)).expect("gateway");
    let mut client = handle.client().expect("client");
    client.open_stream(2).expect("open");
    client.push_rr(2, &[(0.8, 0.8), (1.6, 0.8)]).expect("push");
    let metrics = client.metrics().expect("metrics");
    for family in [
        "# TYPE hrv_service_sessions_open gauge",
        "# TYPE hrv_service_samples_admitted_total counter",
        "# TYPE hrv_kernel_builds_total counter",
        "# TYPE hrv_fleet_windows_total counter",
    ] {
        assert!(
            metrics.contains(family),
            "missing {family:?} in:\n{metrics}"
        );
    }
    drop(client);
    handle.shutdown().expect("shutdown");
}

#[test]
fn metrics_exposition_size_does_not_grow_with_open_streams() {
    let handle = Gateway::start(gateway_config(256, 64)).expect("gateway");
    let mut client = handle.client().expect("client");
    client.open_stream(0).expect("open");
    let one = client.metrics().expect("metrics").lines().count();
    for id in 1..256 {
        client.open_stream(id).expect("open");
    }
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("hrv_service_sessions_open 256"));
    assert_eq!(
        metrics.lines().count(),
        one,
        "no per-stream series in the exposition"
    );
    drop(client);
    handle.shutdown().expect("shutdown");
}

#[test]
fn read_metrics_returns_conformant_histogram_families_over_the_wire() {
    let mut config = gateway_config(4, 4096);
    config.tracer = Tracer::monotonic();
    let handle = Gateway::start(config).expect("gateway");
    let tracer = handle.tracer();
    let mut client = handle.client().expect("client");
    client.open_stream(3).expect("open");
    // Enough stream time for several 120 s analysis windows to emit, so
    // the window-compute and dispatch histograms record real samples.
    for chunk in member_samples(3, 400.0).chunks(50) {
        client.push_rr(3, chunk).expect("push");
    }
    // Every answered push is analysed: the windows are visible at once.
    let report = client.read_report(3).expect("report");
    assert!(report.windows > 0);
    let metrics = client.metrics().expect("metrics");
    // The whole exposition — counters, gauges, histograms — conforms.
    validate_exposition(&metrics).expect("conformant exposition");
    for family in [
        "# TYPE hrv_service_frame_read_seconds histogram",
        "# TYPE hrv_service_frame_decode_seconds histogram",
        "# TYPE hrv_service_report_encode_seconds histogram",
        "# TYPE hrv_service_pump_dispatch_seconds histogram",
        "# TYPE hrv_stream_window_compute_seconds histogram",
        "# TYPE hrv_stream_governor_decision_seconds histogram",
    ] {
        assert!(metrics.contains(family), "missing {family:?}");
    }
    // The pipeline stages recorded real samples (cumulative +Inf bucket
    // == _count > 0) and carry the kernel/rail labels on window compute.
    for (family, probe) in [
        ("hrv_service_frame_decode_seconds", "_bucket{le=\"+Inf\"}"),
        ("hrv_service_pump_dispatch_seconds", "_bucket{le=\"+Inf\"}"),
        ("hrv_stream_window_compute_seconds", "le=\"+Inf\""),
    ] {
        let line = metrics
            .lines()
            .find(|l| l.starts_with(family) && l.contains(probe))
            .unwrap_or_else(|| panic!("no {probe} sample for {family}"));
        let count: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(count > 0.0, "{family} recorded nothing: {line}");
    }
    assert!(
        metrics.contains("hrv_stream_window_compute_seconds_bucket{kernel=\""),
        "window compute is labelled by kernel"
    );
    assert!(metrics.contains("rail=\""), "and by DVFS rail");
    // The per-backend kernel-cache breakdown rode along.
    assert!(metrics.contains("hrv_kernel_cached_plans{kernel=\""));
    // Spans covered every pipeline stage end to end; the push's dispatch
    // span closed before its reply was encoded.
    let stages: std::collections::BTreeSet<&str> = tracer.spans().iter().map(|s| s.stage).collect();
    for stage in [
        "request",
        "frame_decode",
        "handle",
        "report_encode",
        "push_dispatch",
        "window_compute",
    ] {
        assert!(stages.contains(stage), "no {stage:?} span in {stages:?}");
    }
    // Each push links to the windows it computed, and one `Stage` per
    // stage feeds both views: as many spans as observations (the
    // metrics reply was encoded before it was sent).
    let spans = tracer.spans();
    let of = |stage| spans.iter().filter(move |s| s.stage == stage);
    let dispatches: std::collections::BTreeSet<u64> = of("push_dispatch").map(|s| s.id).collect();
    assert!(of("window_compute").all(|s| dispatches.contains(&s.parent)));
    for (stage, family) in [
        ("frame_decode", "hrv_service_frame_decode_seconds"),
        ("report_encode", "hrv_service_report_encode_seconds"),
        ("push_dispatch", "hrv_service_pump_dispatch_seconds"),
        ("window_compute", "hrv_stream_window_compute_seconds"),
    ] {
        let series = handle.telemetry().histogram_series(family);
        let observed: u64 = series.iter().map(|(_, hist)| hist.count()).sum();
        assert_eq!(of(stage).count() as u64, observed, "{stage} vs {family}");
    }
    // ...and the Chrome export of a live gateway trace stays well-formed.
    let chrome = tracer.chrome_trace();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.ends_with("]}"));
    drop(client);
    handle.shutdown().expect("shutdown");
}

#[test]
fn hello_is_mandatory_before_any_other_request() {
    let handle = Gateway::start(gateway_config(4, 64)).expect("gateway");
    // A raw connection that skips the handshake.
    let mut conn = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    hrv_psa::service::write_frame(&mut conn, &Request::OpenStream { stream: 1 }.encode())
        .expect("write");
    let mut reader = FrameReader::new();
    let reply = loop {
        match reader.poll(&mut conn).expect("poll") {
            FramePoll::Frame(body) => break Reply::decode(&body).expect("decode"),
            FramePoll::Pending => continue,
            FramePoll::Closed => panic!("gateway closed before replying"),
        }
    };
    assert!(
        matches!(&reply, Reply::Error(ServiceError::Protocol(m)) if m.contains("Hello")),
        "got {reply:?}"
    );
    // An unsupported version draws the typed rejection through connect().
    hrv_psa::service::write_frame(&mut conn, &Request::Hello { version: 999 }.encode())
        .expect("write");
    let reply = loop {
        match reader.poll(&mut conn).expect("poll") {
            FramePoll::Frame(body) => break Reply::decode(&body).expect("decode"),
            FramePoll::Pending => continue,
            FramePoll::Closed => panic!("gateway closed before replying"),
        }
    };
    assert!(
        matches!(&reply, Reply::Error(ServiceError::Protocol(m)) if m.contains("version")),
        "got {reply:?}"
    );
    drop(conn);
    handle.shutdown().expect("shutdown");
}

// ---- frame/codec property tests -------------------------------------------

/// Round-trips a request through encode → frame → reassemble → decode.
fn wire_round_trip(request: &Request) -> Request {
    let mut wire = Vec::new();
    hrv_psa::service::write_frame(&mut wire, &request.encode()).expect("write");
    let mut reader = FrameReader::new();
    match reader.poll(&mut Cursor::new(wire)).expect("poll") {
        FramePoll::Frame(body) => Request::decode(&body).expect("decode"),
        other => panic!("expected a frame, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn push_rr_round_trips_bit_identically(
        id in 0.0f64..9e15,
        values in prop::collection::vec(0.0f64..3.0, 0..64),
    ) {
        let samples: Vec<(f64, f64)> = values
            .chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| (c[0] * 1e4, c[1]))
            .collect();
        let request = Request::PushRr { stream: id as u64, samples };
        prop_assert_eq!(wire_round_trip(&request), request);
    }

    #[test]
    fn control_requests_round_trip(
        id in 0.0f64..9e15,
        joules in 0.0f64..1e3,
        which in prop::collection::vec(0.0f64..8.0, 1),
    ) {
        let stream = id as u64;
        let request = match which[0] as u32 {
            0 => Request::Hello { version: PROTOCOL_VERSION },
            1 => Request::OpenStream { stream },
            2 => Request::ReadReport { stream },
            3 => Request::SetQuality { stream, mode: ApproximationMode::BandDropSet2 },
            4 => Request::CloseStream { stream },
            5 => Request::SetBudget {
                stream,
                budget: hrv_psa::stream::StreamBudget {
                    joules_per_interval: joules,
                    interval_windows: stream.max(1),
                    battery_capacity_j: joules * 3.0,
                    battery_harvest_w: joules * 1e-6,
                },
            },
            6 => Request::ReadBudget { stream },
            _ => Request::Shutdown,
        };
        prop_assert_eq!(wire_round_trip(&request), request);
    }

    #[test]
    fn replies_round_trip_through_frames(
        a in 0.0f64..1e9,
        b in 0.0f64..1e6,
        which in prop::collection::vec(0.0f64..4.0, 1),
    ) {
        let reply = match which[0] as u32 {
            0 => Reply::Pushed(Pushed {
                stream: a as u64,
                accepted: b as u32,
                gated: (b / 2.0) as u32,
                queue_depth: (b / 3.0) as u32,
            }),
            1 => Reply::Error(ServiceError::Busy { stream: a as u64, capacity: b as u32 }),
            2 => Reply::Error(ServiceError::Truncated {
                expected: a as usize,
                got: b as usize,
            }),
            _ => Reply::Metrics(format!("# metric {a} {b}")),
        };
        let mut wire = Vec::new();
        hrv_psa::service::write_frame(&mut wire, &reply.encode()).expect("write");
        let mut reader = FrameReader::new();
        let FramePoll::Frame(body) = reader.poll(&mut Cursor::new(wire)).expect("poll") else {
            return Err("expected frame".into());
        };
        prop_assert_eq!(Reply::decode(&body).expect("decode"), reply);
    }

    #[test]
    fn truncated_frames_are_rejected(
        values in prop::collection::vec(0.0f64..3.0, 2..32),
        cut_frac in 0.0f64..1.0,
    ) {
        let samples: Vec<(f64, f64)> = values
            .chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| (c[0], c[1]))
            .collect();
        let request = Request::PushRr { stream: 1, samples };
        let mut wire = Vec::new();
        hrv_psa::service::write_frame(&mut wire, &request.encode()).expect("write");
        let cut = ((wire.len() - 1) as f64 * cut_frac) as usize;
        let mut reader = FrameReader::new();
        let outcome = reader.poll(&mut Cursor::new(wire[..cut].to_vec()));
        if cut == 0 {
            // Clean EOF at a frame boundary is a close, not an error.
            prop_assert_eq!(outcome.expect("boundary"), FramePoll::Closed);
        } else {
            prop_assert!(
                matches!(outcome, Err(ServiceError::Truncated { .. })),
                "cut at {} of {} gave {:?}", cut, cut_frac, outcome
            );
        }
    }

    #[test]
    fn oversized_headers_are_rejected_by_the_bound(extra in 1.0f64..1e6) {
        let len = MAX_FRAME + extra as usize;
        let mut wire = (len as u32).to_be_bytes().to_vec();
        wire.extend([0u8; 16]);
        let outcome = FrameReader::new().poll(&mut Cursor::new(wire));
        prop_assert_eq!(
            outcome.unwrap_err(),
            ServiceError::FrameTooLarge { len, max: MAX_FRAME }
        );
    }
}
