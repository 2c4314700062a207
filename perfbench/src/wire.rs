//! The benchmark's side of the wire: framed connections that multiplex
//! many streams, and the gateway child process.

use crate::stats::MeanNs;
use hrv_core::Tracer;
use hrv_service::{
    proto, write_frame, FramePoll, FrameReader, Gateway, GatewayConfig, Reply, Request,
    SessionConfig, PROTOCOL_VERSION,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// One framed client connection. Replies arrive in request order, so a
/// caller that pipelines keeps its own FIFO of what it sent.
pub struct Conn {
    pub stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    /// Bytes written to the socket.
    pub bytes_out: u64,
    /// `proto::encode_push_rr` + `write_frame` time per push.
    pub encode: MeanNs,
    /// `Reply::decode` time per reply.
    pub decode: MeanNs,
    tracer: Tracer,
}

impl Conn {
    /// Connects and completes the `Hello` handshake.
    pub fn connect(addr: &str, tracer: &Tracer) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut conn = Conn {
            stream,
            reader: FrameReader::new(),
            out: Vec::with_capacity(4096),
            bytes_out: 0,
            encode: MeanNs::default(),
            decode: MeanNs::default(),
            tracer: tracer.clone(),
        };
        match conn.call(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Reply::HelloAck { .. } => Ok(conn),
            other => Err(format!("handshake: unexpected {other:?}")),
        }
    }

    fn flush(&mut self) -> Result<(), String> {
        let _span = self.tracer.span("client.send");
        self.stream
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        self.bytes_out += self.out.len() as u64;
        self.out.clear();
        Ok(())
    }

    /// Sends one request frame.
    pub fn send(&mut self, request: &Request) -> Result<(), String> {
        write_frame(&mut self.out, &request.encode()).map_err(|e| e.to_string())?;
        self.flush()
    }

    /// Sends one `PushRr` frame, timing its encoding.
    pub fn send_push(&mut self, stream: u64, samples: &[(f64, f64)]) -> Result<(), String> {
        {
            let _span = self.tracer.span("client.push_encode");
            let started = Instant::now();
            write_frame(&mut self.out, &proto::encode_push_rr(stream, samples))
                .map_err(|e| e.to_string())?;
            self.encode.add(started.elapsed().as_nanos());
        }
        self.flush()
    }

    fn decode(&mut self, body: &[u8]) -> Result<Reply, String> {
        let _span = self.tracer.span("client.reply_decode");
        let started = Instant::now();
        let reply = Reply::decode(body).map_err(|e| format!("reply decode: {e}"))?;
        self.decode.add(started.elapsed().as_nanos());
        Ok(reply)
    }

    /// Next reply, or `None` when none is complete yet (nonblocking
    /// sockets) — a blocking socket waits for one.
    pub fn poll(&mut self) -> Result<Option<Reply>, String> {
        match self.reader.poll(&mut self.stream) {
            Ok(FramePoll::Frame(body)) => self.decode(&body).map(Some),
            Ok(FramePoll::Pending) => Ok(None),
            Ok(FramePoll::Closed) => Err("gateway closed the connection".into()),
            Err(e) => Err(format!("frame read: {e}")),
        }
    }

    /// Blocks for the next reply.
    pub fn recv(&mut self) -> Result<Reply, String> {
        loop {
            if let Some(reply) = self.poll()? {
                return Ok(reply);
            }
        }
    }

    /// One lockstep request/reply.
    pub fn call(&mut self, request: &Request) -> Result<Reply, String> {
        self.send(request)?;
        self.recv()
    }

    /// Opens `stream` (lockstep).
    pub fn open(&mut self, stream: u64) -> Result<(), String> {
        match self.call(&Request::OpenStream { stream })? {
            Reply::StreamOpened { .. } => Ok(()),
            other => Err(format!("open {stream}: unexpected {other:?}")),
        }
    }

    /// The gateway's exposition text.
    pub fn metrics(&mut self) -> Result<String, String> {
        match self.call(&Request::ReadMetrics)? {
            Reply::Metrics(text) => Ok(text),
            other => Err(format!("metrics: unexpected {other:?}")),
        }
    }
}

/// The gateway role of this binary: serve with `GatewayConfig::default()`
/// except the session limits, print the bound address, exit after the
/// drain. With `trace_out`, the gateway's tracer records and its spans
/// are written there as Chrome JSON on exit.
pub fn gateway_child_main(sessions: usize, trace_out: Option<String>) -> Result<(), String> {
    // The parent holds our stdin open for as long as it wants us alive:
    // if it dies, stdin closes and the gateway must not outlive it.
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(3);
    });
    let tracer = match trace_out {
        Some(_) => Tracer::monotonic(),
        None => Tracer::disabled(),
    };
    let handle = Gateway::start(GatewayConfig {
        session: SessionConfig {
            max_sessions: sessions,
            ..SessionConfig::default()
        },
        tracer: tracer.clone(),
        ..GatewayConfig::default()
    })
    .map_err(|e| format!("gateway start: {e}"))?;
    println!("ADDR {}", handle.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    handle.wait().map_err(|e| format!("gateway: {e}"))?;
    if let Some(path) = trace_out {
        std::fs::write(&path, tracer.chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// A gateway child process; killed and reaped on drop unless it already
/// exited through [`GatewayChild::wait`].
pub struct GatewayChild {
    child: Option<Child>,
    pub addr: String,
    pub pid: u32,
}

impl GatewayChild {
    /// Re-executes this binary in the gateway role and waits for its
    /// address.
    pub fn spawn(sessions: usize, trace_out: Option<&str>) -> Result<GatewayChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--gateway-child", "--sessions", &sessions.to_string()]);
        if let Some(path) = trace_out {
            cmd.args(["--trace-out", path]);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn gateway: {e}"))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut guard = GatewayChild {
            child: Some(child),
            addr: String::new(),
            pid,
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("gateway address: {e}"))?;
        guard.addr = line
            .trim()
            .strip_prefix("ADDR ")
            .ok_or_else(|| format!("gateway printed {line:?}, not its address"))?
            .to_string();
        Ok(guard)
    }

    /// Waits for the child to exit (after a `Shutdown`) and checks its
    /// status.
    pub fn wait(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("waited once");
        // `Child::wait` would close stdin first, which tells the child to
        // exit before it has finished writing its trace.
        let stdin = child.stdin.take();
        let status = child.wait().map_err(|e| format!("gateway wait: {e}"))?;
        drop(stdin);
        if status.success() {
            Ok(())
        } else {
            Err(format!("gateway exited with {status}"))
        }
    }
}

impl Drop for GatewayChild {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Sends `Shutdown` on `conn` and returns the drained per-stream reports.
pub fn shutdown(conn: &mut Conn) -> Result<Vec<hrv_stream::StreamReport>, String> {
    match conn.call(&Request::Shutdown)? {
        Reply::ShutdownAck { reports } => Ok(reports),
        other => Err(format!("shutdown: unexpected {other:?}")),
    }
}
