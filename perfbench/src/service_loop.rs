//! A closed-loop client around `service::serve`.
//!
//! The service reads job lines from a channel-backed reader and writes
//! responses to a channel-backed writer. The client keeps a fixed number
//! of jobs outstanding and sends the next job only when a response
//! frees a slot, so a job's latency — from writing its line to reading
//! its response — is service time, not the length of a queue the
//! client built up.

use scnn_core::json;
use scnn_core::service::{serve, JobOutput, JobSpec, ServiceConfig, ServiceReport};
use scnn_par::Threads;
use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// How long the client waits for any response before it counts the
/// jobs still in flight as lost.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// A `BufRead` fed one line per channel message; end of input when
/// the sender is dropped.
struct ChannelReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ChannelReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if let Ok(line) = self.rx.recv() {
                self.buf.extend_from_slice(line.as_bytes());
                self.buf.push(b'\n');
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

/// A `Write` that sends each completed line down a channel.
struct ChannelWriter {
    tx: Sender<String>,
    pending: Vec<u8>,
}

impl Write for ChannelWriter {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(bytes);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line[..end]).into_owned();
            self.tx
                .send(text)
                .map_err(|_| std::io::Error::other("client hung up"))?;
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One job to submit.
#[derive(Debug, Clone)]
pub struct Job {
    /// Correlation id (a filename-safe slug).
    pub id: String,
    /// The full protocol line, without its newline.
    pub line: String,
}

/// One response the client read.
#[derive(Debug, Clone)]
pub struct Response {
    /// The id the response carried, if any.
    pub id: Option<String>,
    /// The parsed response object.
    pub body: json::Value,
    /// Seconds from writing the job line to reading this response;
    /// `None` for a response to no outstanding job.
    pub latency_s: Option<f64>,
    /// When the job line was written.
    pub sent: Option<Instant>,
    /// When the response was read.
    pub read: Instant,
}

/// What one closed-loop session saw.
#[derive(Debug)]
pub struct Session {
    /// Every job response, in arrival order (the shutdown answer
    /// excluded).
    pub responses: Vec<Response>,
    /// Wall time from starting the service to its return.
    pub wall_s: f64,
    /// The service's own accounting.
    pub report: ServiceReport,
}

/// Runs `jobs` through a fresh `serve` loop with `outstanding` jobs in
/// flight and `workers` service workers, then shuts the service down.
pub fn closed_loop<F>(jobs: &[Job], outstanding: usize, workers: Threads, executor: F) -> Session
where
    F: Fn(&JobSpec) -> Result<JobOutput, String> + Sync,
{
    let (job_tx, job_rx) = mpsc::channel::<String>();
    let (resp_tx, resp_rx) = mpsc::channel::<String>();
    let config = ServiceConfig {
        workers,
        include_stdout: true,
    };
    let start = Instant::now();
    std::thread::scope(|scope| {
        let reader = ChannelReader {
            rx: job_rx,
            buf: Vec::new(),
            pos: 0,
        };
        let writer = ChannelWriter {
            tx: resp_tx,
            pending: Vec::new(),
        };
        let server = scope.spawn(|| serve(reader, writer, &config, &executor));

        let mut in_flight: HashMap<String, Instant> = HashMap::new();
        let mut next = 0;
        let send = |job: &Job, in_flight: &mut HashMap<String, Instant>| {
            in_flight.insert(job.id.clone(), Instant::now());
            // The service outlives the client's sends, so this cannot
            // fail before shutdown.
            let _ = job_tx.send(job.line.clone());
        };
        while next < jobs.len() && in_flight.len() < outstanding.max(1) {
            send(&jobs[next], &mut in_flight);
            next += 1;
        }
        let mut responses = Vec::with_capacity(jobs.len());
        while !in_flight.is_empty() {
            let line = match resp_rx.recv_timeout(RESPONSE_TIMEOUT) {
                Ok(line) => line,
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
            };
            let read = Instant::now();
            let response = parse_response(&line, read, &mut in_flight);
            responses.push(response);
            if next < jobs.len() && in_flight.len() < outstanding.max(1) {
                send(&jobs[next], &mut in_flight);
                next += 1;
            }
        }
        let _ = job_tx.send("{\"id\":\"bench-shutdown\",\"command\":\"shutdown\"}".to_owned());
        drop(job_tx);
        // Drain until the service drops its writer: the shutdown answer
        // and anything that arrives late or twice.
        while let Ok(line) = resp_rx.recv_timeout(RESPONSE_TIMEOUT) {
            let response = parse_response(&line, Instant::now(), &mut in_flight);
            if response.id.as_deref() != Some("bench-shutdown") {
                responses.push(response);
            }
        }
        let report = server.join().expect("the serve loop does not panic");
        Session {
            responses,
            wall_s: start.elapsed().as_secs_f64(),
            report,
        }
    })
}

fn parse_response(line: &str, read: Instant, in_flight: &mut HashMap<String, Instant>) -> Response {
    let body = json::parse(line).unwrap_or(json::Value::Null);
    let id = body
        .get("id")
        .and_then(json::Value::as_str)
        .map(str::to_owned);
    let sent = id.as_ref().and_then(|id| in_flight.remove(id));
    Response {
        id,
        body,
        latency_s: sent.map(|s| read.duration_since(s).as_secs_f64()),
        sent,
        read,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_job_is_answered_once_with_a_bounded_window() {
        let jobs: Vec<Job> = (0..20)
            .map(|i| Job {
                id: format!("j{i}"),
                line: format!("{{\"id\":\"j{i}\",\"command\":\"echo\"}}"),
            })
            .collect();
        let in_exec = std::sync::atomic::AtomicUsize::new(0);
        let peak = std::sync::atomic::AtomicUsize::new(0);
        let session = closed_loop(&jobs, 2, Threads::Count(4), |spec| {
            use std::sync::atomic::Ordering::SeqCst;
            let now = in_exec.fetch_add(1, SeqCst) + 1;
            peak.fetch_max(now, SeqCst);
            std::thread::yield_now();
            in_exec.fetch_sub(1, SeqCst);
            Ok(JobOutput {
                stdout: spec.id.clone(),
                cache: None,
            })
        });
        assert_eq!(session.responses.len(), 20);
        assert!(session.responses.iter().all(|r| r.latency_s.is_some()));
        assert_eq!(session.report.ok, 21, "20 jobs and the shutdown");
        assert!(
            peak.load(std::sync::atomic::Ordering::SeqCst) <= 2,
            "never more jobs in service than the client keeps outstanding"
        );
    }
}
