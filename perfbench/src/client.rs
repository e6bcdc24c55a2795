//! The load generator: a line-protocol client with closed-loop and
//! open-loop senders. Every connection and thread it starts counts
//! against `nproc`, and it refuses to exceed that.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One pre-encoded `BATCH` frame.
#[derive(Debug, Clone)]
pub struct Frame {
    pub bytes: Vec<u8>,
    pub members: usize,
}

impl Frame {
    /// `BATCH n` followed by the member lines.
    pub fn batch(lines: &[String]) -> Frame {
        let mut bytes = format!("BATCH {}\n", lines.len()).into_bytes();
        for line in lines {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        Frame {
            bytes,
            members: lines.len(),
        }
    }
}

/// The answer to one member: its first line plus any `CLOSED` lines.
pub type MemberReply = Vec<String>;

/// A connection that reads newline-delimited replies.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

impl Conn {
    pub fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            pos: 0,
        }
    }

    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    pub fn writer(&self) -> Result<TcpStream, String> {
        self.stream.try_clone().map_err(|e| format!("clone: {e}"))
    }

    /// The next reply line, without its newline.
    pub fn line(&mut self) -> Result<String, String> {
        loop {
            if let Some(at) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&self.buf[self.pos..self.pos + at]).into_owned();
                self.pos += at + 1;
                return Ok(line);
            }
            if self.pos > 0 {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
            let mut chunk = [0u8; 1 << 16];
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// One member reply: `OK n` is followed by `n` more lines.
    fn member(&mut self) -> Result<MemberReply, String> {
        let first = self.line()?;
        let extra = match first.strip_prefix("OK ") {
            Some(n) => n.parse::<usize>().unwrap_or(0),
            None => 0,
        };
        let mut reply = Vec::with_capacity(1 + extra);
        reply.push(first);
        for _ in 0..extra {
            reply.push(self.line()?);
        }
        Ok(reply)
    }

    /// The reply to a `BATCH` frame of `members` members.
    pub fn batch_reply(&mut self, members: usize) -> Result<Vec<MemberReply>, String> {
        let header = self.line()?;
        if header != format!("OKBATCH {members}") {
            return Err(format!("expected OKBATCH {members}, got {header:?}"));
        }
        (0..members).map(|_| self.member()).collect()
    }

    /// Send one unbatched request and read its reply.
    pub fn request(&mut self, line: &str) -> Result<MemberReply, String> {
        self.send(format!("{line}\n").as_bytes())?;
        self.member()
    }
}

/// The most connections or threads the generator may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn within_nproc(what: &str, wanted: usize) -> Result<(), String> {
    if wanted > nproc() {
        return Err(format!(
            "refusing to start {wanted} {what}: only {} cores",
            nproc()
        ));
    }
    Ok(())
}

/// What one closed-loop connection achieved.
pub struct ClosedOutcome<T> {
    /// Frames acknowledged; with `cycle`, frame `i` is `frames[i % len]`.
    pub frames_acked: usize,
    pub members_acked: usize,
    pub last_ack: Instant,
    /// When each frame was acknowledged, with its member count.
    pub acks: Vec<(Instant, usize)>,
    /// What `on_reply` returned for each acknowledged frame, in order.
    pub replies: Vec<T>,
}

/// Members acknowledged per second in each of `slices` equal slices of
/// the phase. Rates are reported as the median over slices, so a burst
/// of lost CPU or disk time moves one slice and not the rate.
pub fn slice_rates<T>(outcomes: &[ClosedOutcome<T>], started: Instant, slices: usize) -> Vec<f64> {
    let end = outcomes.iter().map(|o| o.last_ack).max().unwrap_or(started);
    let span = end.duration_since(started).as_secs_f64();
    let mut members = vec![0usize; slices];
    for (at, n) in outcomes.iter().flat_map(|o| &o.acks) {
        let x = at.duration_since(started).as_secs_f64() / span * slices as f64;
        members[(x as usize).min(slices - 1)] += n;
    }
    members
        .iter()
        .map(|&m| m as f64 * slices as f64 / span)
        .collect()
}

/// Closed loop: each connection keeps `window` frames in flight and
/// sends the next only when a reply frees a slot, until `deadline`; then
/// it stops sending and drains. One thread per connection. With `cycle`
/// the frames repeat once exhausted. `on_reply(connection, frame, replies)`
/// runs on each reply in the connection's thread.
pub fn closed_loop<T: Send>(
    addr: &str,
    streams: &[Vec<Frame>],
    window: usize,
    deadline: Instant,
    cycle: bool,
    on_reply: &(dyn Fn(usize, usize, Vec<MemberReply>) -> T + Sync),
) -> Result<Vec<ClosedOutcome<T>>, String> {
    within_nproc("closed-loop connections", streams.len())?;
    let conns = streams
        .iter()
        .map(|_| crate::proc::connect(addr).map(Conn::new))
        .collect::<Result<Vec<_>, _>>()?;
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(index, (mut conn, frames))| {
                scope.spawn(move || -> Result<ClosedOutcome<T>, String> {
                    let limit = if cycle { usize::MAX } else { frames.len() };
                    let frame = |i: usize| &frames[i % frames.len()];
                    let mut sent = 0usize;
                    let mut out = ClosedOutcome {
                        frames_acked: 0,
                        members_acked: 0,
                        last_ack: Instant::now(),
                        acks: Vec::new(),
                        replies: Vec::new(),
                    };
                    loop {
                        while sent < limit
                            && !frames.is_empty()
                            && sent - out.frames_acked < window
                            && Instant::now() < deadline
                        {
                            conn.send(&frame(sent).bytes)?;
                            sent += 1;
                        }
                        if out.frames_acked == sent {
                            return Ok(out);
                        }
                        let members = frame(out.frames_acked).members;
                        let replies = conn.batch_reply(members)?;
                        out.last_ack = Instant::now();
                        out.acks.push((out.last_ack, members));
                        out.replies.push(on_reply(index, out.frames_acked, replies));
                        out.frames_acked += 1;
                        out.members_acked += members;
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    })
}

/// What the open loop measured.
pub struct OpenOutcome {
    /// Per frame: reply time minus the time the frame was due, in ms.
    pub latency_ms: Vec<f64>,
    /// Per frame: send time minus due time, in ms (how late the
    /// generator ran).
    pub send_lag_ms: Vec<f64>,
    pub replies: Vec<Vec<MemberReply>>,
}

/// Open loop over one connection: frame `i` is due at `i / rate`
/// seconds after the start and is sent then, whether or not earlier
/// frames were answered. A writer thread keeps the schedule and this
/// thread reads replies, so the phase uses two threads.
pub fn open_loop(addr: &str, frames: &[Frame], rate: f64) -> Result<OpenOutcome, String> {
    within_nproc("open-loop threads", 2)?;
    let mut conn = Conn::new(crate::proc::connect(addr)?);
    let mut writer = conn.writer()?;
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<Vec<f64>, String> {
            let mut lag = Vec::with_capacity(frames.len());
            for (i, frame) in frames.iter().enumerate() {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let sent = Instant::now();
                writer
                    .write_all(&frame.bytes)
                    .map_err(|e| format!("send: {e}"))?;
                lag.push(sent.saturating_duration_since(at).as_secs_f64() * 1e3);
            }
            Ok(lag)
        });
        let mut latency_ms = Vec::with_capacity(frames.len());
        let mut replies = Vec::with_capacity(frames.len());
        let mut failure = None;
        for (i, frame) in frames.iter().enumerate() {
            match conn.batch_reply(frame.members) {
                Ok(reply) => {
                    latency_ms.push(
                        Instant::now()
                            .saturating_duration_since(due(i))
                            .as_secs_f64()
                            * 1e3,
                    );
                    replies.push(reply);
                }
                Err(e) => {
                    failure = Some(e);
                    // Unblock the writer if the server went away.
                    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                    break;
                }
            }
        }
        let send_lag_ms = sender.join().expect("open-loop writer panicked");
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(OpenOutcome {
            latency_ms,
            send_lag_ms: send_lag_ms?,
            replies,
        })
    })
}
