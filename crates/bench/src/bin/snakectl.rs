//! `snakectl` — client for the `snaked` telemetry daemon.
//!
//! * `submit` queues a sweep and prints its job id; `--client` tags it
//!   for quota accounting, `--deadline-ms` bounds each scheduling
//!   slice (suspend-to-checkpoint + requeue on expiry), and
//!   `--checkpoint-every` overrides the daemon's checkpoint cadence.
//!   A quota rejection exits with the distinct code 8.
//! * `status [ID]` prints the daemon's job registry (JSON, one line).
//! * `tail ID` follows a job live: one line per metrics window (IPC,
//!   L1 hit rate, MSHR occupancy, chain depth, throttle state), a
//!   sweep progress line whenever the counters change, and a final
//!   `done` line; the process exits with the job's exit code (7 when
//!   the job was cancelled). `--from-seq`/`--ring` reconnect a cut-off
//!   subscription mid-stream without re-reading (or silently missing)
//!   anything.
//! * `top ID` renders a live dashboard for a running job: per-window
//!   IPC, the eight-bucket issue-slot stall breakdown as a stacked
//!   bar, MSHR/miss-queue/NoC occupancy gauges, and drop-accounting
//!   health, repainted in place (plain ANSI) every window. `--once`
//!   prints a single snapshot and exits 0; `--ring`/`--from-seq`
//!   reconnect mid-stream with the same verified drop accounting as
//!   `tail`.
//! * `reports ID` prints a finished job's report rows (JSON, one
//!   line) — stable bytes, suitable for diffing two runs.
//! * `health` prints the daemon's self-diagnostics: journal
//!   degradation counters, dropped tail subscribers, checkpoints.
//! * `cancel ID` cancels a queued or running job.
//! * `shutdown` stops the daemon (cancelling everything live).

use std::path::{Path, PathBuf};

use snake_bench::cli::{fail, CliError};
use snake_bench::serve::client::{self, ClientError, TailOutcome};
use snake_bench::serve::{Request, SubmitSpec, EXIT_QUOTA};
use snake_core::json::Value;

const USAGE: &str = "usage: snakectl [--socket PATH] COMMAND
commands:
  submit [--benchmarks LIST] [--mechanisms LIST] [--quick]
         [--budget CYCLES] [--window CYCLES] [--events] [--priority N]
         [--client NAME] [--deadline-ms MS] [--checkpoint-every CYCLES]
         [--isolate]
                 queue a sweep; prints the job id
                 (exit 8: rejected by the per-client quota;
                  --isolate runs each job in a sandboxed subprocess —
                  crashes quarantine with a typed kind instead of
                  killing the daemon; incompatible with --events)
  status [ID]    print job states as JSON
  tail ID [--ring N] [--from-seq N]
                 follow a job's live telemetry; exits with its code;
                 --ring/--from-seq resume a cut-off subscription
  top ID [--once] [--ring N] [--from-seq N]
                 live dashboard: IPC, stall-reason stacked bar,
                 MSHR/NoC occupancy, drop health; --once prints one
                 snapshot and exits 0
  reports ID     print a finished job's report rows as JSON
  health         print daemon health (journal state, drop counters)
  cancel ID      cancel a queued or running job
  shutdown       stop the daemon
  --socket PATH  daemon socket (default ./snaked.sock)";

enum Command {
    /// One-shot request/response operations.
    Oneshot(Request),
    /// The streaming tail, with reconnect coordinates.
    Tail {
        id: u64,
        ring: u64,
        from: Option<u64>,
    },
    /// The live dashboard (same stream as `tail`, repainted in place).
    Top {
        id: u64,
        ring: u64,
        from: Option<u64>,
        once: bool,
    },
    /// Fetch one job's status and print only its report rows.
    Reports { id: u64 },
}

struct Cli {
    socket: PathBuf,
    command: Command,
}

fn operand(
    args: &mut impl Iterator<Item = String>,
    what: &'static str,
) -> Result<String, CliError> {
    args.next().ok_or(CliError::BadArg {
        what,
        why: "missing operand".into(),
    })
}

fn parse_u64(raw: &str, what: &'static str) -> Result<u64, CliError> {
    raw.parse().map_err(|_| CliError::BadArg {
        what,
        why: format!("not a non-negative integer: {raw:?}"),
    })
}

fn parse_args() -> Result<Cli, CliError> {
    let mut socket = PathBuf::from("snaked.sock");
    let mut args = std::env::args().skip(1).peekable();
    while args.peek().map(String::as_str) == Some("--socket") {
        args.next();
        socket = PathBuf::from(operand(&mut args, "--socket")?);
    }
    let command = operand(&mut args, "command")?;
    let command = match command.as_str() {
        "submit" => {
            let mut spec = SubmitSpec::default();
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--benchmarks" => spec.benchmarks = Some(operand(&mut args, "--benchmarks")?),
                    "--mechanisms" => spec.mechanisms = Some(operand(&mut args, "--mechanisms")?),
                    "--quick" => spec.quick = true,
                    "--events" => spec.events = true,
                    "--isolate" => spec.isolate = true,
                    "--budget" => {
                        spec.budget =
                            Some(parse_u64(&operand(&mut args, "--budget")?, "--budget")?);
                    }
                    "--window" => {
                        spec.window =
                            Some(parse_u64(&operand(&mut args, "--window")?, "--window")?);
                    }
                    "--priority" => {
                        spec.priority =
                            parse_u64(&operand(&mut args, "--priority")?, "--priority")?;
                    }
                    "--client" => spec.client = Some(operand(&mut args, "--client")?),
                    "--deadline-ms" => {
                        spec.deadline_ms = Some(parse_u64(
                            &operand(&mut args, "--deadline-ms")?,
                            "--deadline-ms",
                        )?);
                    }
                    "--checkpoint-every" => {
                        spec.checkpoint_every = Some(parse_u64(
                            &operand(&mut args, "--checkpoint-every")?,
                            "--checkpoint-every",
                        )?);
                    }
                    other => return Err(CliError::Usage(format!("unknown argument {other:?}"))),
                }
            }
            Command::Oneshot(Request::Submit(spec))
        }
        "status" => Command::Oneshot(Request::Status {
            id: args
                .next()
                .map(|raw| parse_u64(&raw, "job id"))
                .transpose()?,
        }),
        "tail" => {
            let id = parse_u64(&operand(&mut args, "job id")?, "job id")?;
            let mut ring = 0;
            let mut from = None;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--ring" => ring = parse_u64(&operand(&mut args, "--ring")?, "--ring")?,
                    "--from-seq" => {
                        from = Some(parse_u64(&operand(&mut args, "--from-seq")?, "--from-seq")?);
                    }
                    other => return Err(CliError::Usage(format!("unknown argument {other:?}"))),
                }
            }
            Command::Tail { id, ring, from }
        }
        "top" => {
            let id = parse_u64(&operand(&mut args, "job id")?, "job id")?;
            let mut ring = 0;
            let mut from = None;
            let mut once = false;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--once" => once = true,
                    "--ring" => ring = parse_u64(&operand(&mut args, "--ring")?, "--ring")?,
                    "--from-seq" => {
                        from = Some(parse_u64(&operand(&mut args, "--from-seq")?, "--from-seq")?);
                    }
                    other => return Err(CliError::Usage(format!("unknown argument {other:?}"))),
                }
            }
            Command::Top {
                id,
                ring,
                from,
                once,
            }
        }
        "reports" => Command::Reports {
            id: parse_u64(&operand(&mut args, "job id")?, "job id")?,
        },
        "health" => Command::Oneshot(Request::Health),
        "cancel" => Command::Oneshot(Request::Cancel {
            id: parse_u64(&operand(&mut args, "job id")?, "job id")?,
        }),
        "shutdown" => Command::Oneshot(Request::Shutdown),
        other => return Err(CliError::Usage(format!("unknown command {other:?}"))),
    };
    Ok(Cli { socket, command })
}

/// Renders one tail stream object as a human-readable line.
fn render(v: &Value) -> Option<String> {
    let kind = v.get("type").and_then(Value::as_str)?;
    let s = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
    let n = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    let f = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    match kind {
        "stream" => Some(format!("stream {} from seq {}", s("job"), n("from"))),
        "window" => Some(format!(
            "window {} cycle={} ipc={:.3} l1={:.1}% mshr={:.1}% chain={} \
             throttled={} warps={} dropped={}",
            s("job"),
            n("cycle"),
            f("ipc"),
            f("l1_hit_rate") * 100.0,
            f("mshr_occupancy") * 100.0,
            n("chain_depth"),
            n("throttled_sms"),
            n("active_warps"),
            n("dropped"),
        )),
        "event" => Some(format!(
            "event {} cycle={} {}",
            s("job"),
            n("cycle"),
            s("name")
        )),
        "progress" => Some(format!(
            "progress {}/{} done, {} quarantined, {} remaining, {} retries",
            n("done"),
            n("total"),
            n("quarantined"),
            n("remaining"),
            n("retries"),
        )),
        "done" => Some(format!(
            "done state={} exit={} delivered={} dropped={}",
            s("state"),
            n("exit"),
            n("delivered"),
            n("dropped"),
        )),
        _ => None,
    }
}

/// Stall-taxonomy buckets in display order: window-line field suffix,
/// bar glyph, and short label. The glyphs stack into the breakdown bar.
const STALL_BUCKETS: [(&str, char, &str); 8] = [
    ("issued", '#', "issued"),
    ("no_warp", ' ', "no-warp"),
    ("barrier", 'B', "barrier"),
    ("scoreboard", 'S', "scoreb"),
    ("mem_data", 'D', "mem-data"),
    ("mem_mshr", 'M', "mshr"),
    ("mem_missq", 'Q', "missq"),
    ("mem_noc", 'N', "noc"),
];

/// State behind the `top` dashboard: the latest window row plus stream
/// health counters, repainted in place after every update.
#[derive(Default)]
struct Dashboard {
    job: String,
    cycle: u64,
    seq: u64,
    dropped: u64,
    ipc: f64,
    l1: f64,
    mshr: f64,
    missq: f64,
    noc: f64,
    warps: u64,
    throttled: u64,
    chain: u64,
    stall: [f64; 8],
    windows: u64,
    events: u64,
    progress: Option<String>,
    /// Lines painted by the previous repaint (cursor-up distance).
    painted: usize,
}

/// A `[####......]`-style occupancy gauge.
fn gauge(frac: f64, width: usize) -> String {
    let fill = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut bar = String::with_capacity(width);
    for i in 0..width {
        bar.push(if i < fill { '#' } else { '.' });
    }
    bar
}

impl Dashboard {
    /// Folds one stream line into the dashboard state. Returns `true`
    /// when the visible state changed (a repaint is due).
    fn observe(&mut self, v: &Value) -> bool {
        let n = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        let f = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        match v.get("type").and_then(Value::as_str) {
            Some("stream") => {
                if let Some(job) = v.get("job").and_then(Value::as_str) {
                    self.job = job.to_string();
                }
                false
            }
            Some("window") => {
                self.cycle = n("cycle");
                self.seq = n("seq");
                self.dropped = n("dropped");
                self.ipc = f("ipc");
                self.l1 = f("l1_hit_rate");
                self.mshr = f("mshr_occupancy");
                self.missq = f("miss_queue_occupancy");
                self.noc = f("noc_utilization");
                self.warps = n("active_warps");
                self.throttled = n("throttled_sms");
                self.chain = n("chain_depth");
                for (i, (key, _, _)) in STALL_BUCKETS.iter().enumerate() {
                    self.stall[i] = f(&format!("stall_{key}"));
                }
                self.windows += 1;
                true
            }
            Some("event") => {
                self.events += 1;
                self.dropped = self.dropped.max(n("dropped"));
                false
            }
            Some("progress") => {
                self.progress = Some(format!(
                    "sweep {}/{} done, {} quarantined, {} retries",
                    n("done"),
                    n("total"),
                    n("quarantined"),
                    n("retries"),
                ));
                true
            }
            _ => false,
        }
    }

    /// The stall breakdown as a stacked bar: each bucket's glyph
    /// repeated in proportion to its fraction of the window's issue
    /// slots.
    fn stacked_bar(&self, width: usize) -> String {
        let mut bar = String::with_capacity(width);
        for (i, &frac) in self.stall.iter().enumerate() {
            let n = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
            for _ in 0..n {
                if bar.chars().count() < width {
                    bar.push(STALL_BUCKETS[i].1);
                }
            }
        }
        while bar.chars().count() < width {
            bar.push('.');
        }
        bar
    }

    /// Repaints the dashboard in place: moves the cursor up over the
    /// previous frame (plain ANSI, same escapes as `repro --progress`)
    /// and rewrites each line, clearing to end-of-line.
    fn paint(&mut self) {
        let health = if self.dropped == 0 {
            "ok (0 dropped)".to_string()
        } else {
            format!("{} dropped", self.dropped)
        };
        let pct100 = |v: f64| format!("{:.1}%", v * 100.0);
        let mut lines = vec![
            format!(
                "top {}  window #{}  cycle {}  seq {}  stream {}",
                self.job, self.windows, self.cycle, self.seq, health
            ),
            format!(
                "ipc {:.3}  l1 {}  warps {}  throttled {}  chain {}  events {}",
                self.ipc,
                pct100(self.l1),
                self.warps,
                self.throttled,
                self.chain,
                self.events
            ),
            format!(
                "mshr [{}] {}  missq [{}] {}  noc [{}] {}",
                gauge(self.mshr, 10),
                pct100(self.mshr),
                gauge(self.missq, 10),
                pct100(self.missq),
                gauge(self.noc, 10),
                pct100(self.noc)
            ),
            format!("stall [{}]", self.stacked_bar(40)),
            STALL_BUCKETS
                .iter()
                .zip(self.stall.iter())
                .map(|((_, _, label), &frac)| format!("{label} {}", pct100(frac)))
                .collect::<Vec<_>>()
                .join(" | "),
        ];
        if let Some(progress) = &self.progress {
            lines.push(progress.clone());
        }
        if self.painted > 0 {
            print!("\x1b[{}A", self.painted);
        }
        for line in &lines {
            println!("{line}\x1b[K");
        }
        self.painted = lines.len();
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
}

/// Exits with the code a client failure calls for: the typed quota
/// rejection gets its own exit code ([`EXIT_QUOTA`]), other daemon
/// refusals exit 2, transport failures go through the shared CLI path.
fn client_fail(socket: &Path, e: ClientError) -> ! {
    match e {
        ClientError::Daemon { message, code } => {
            eprintln!("snakectl: {message}");
            if code.as_deref() == Some("quota") {
                std::process::exit(EXIT_QUOTA);
            }
            std::process::exit(2);
        }
        ClientError::Io(e) => fail(
            "snakectl",
            &CliError::io(socket.display().to_string(), e),
            USAGE,
        ),
    }
}

fn main() {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => fail("snakectl", &e, USAGE),
    };
    match &cli.command {
        Command::Tail { id, ring, from } => {
            let end = client::tail_from(&cli.socket, *id, *ring, *from, |line| {
                if let Some(text) = render(line) {
                    println!("{text}");
                }
            })
            .unwrap_or_else(|e| client_fail(&cli.socket, e));
            std::process::exit(end.exit);
        }
        Command::Top {
            id,
            ring,
            from,
            once,
        } => {
            let mut dash = Dashboard::default();
            if *once {
                // Stop as soon as one window has been rendered.
                let out = client::tail_watch(&cli.socket, *id, *ring, *from, |line| {
                    if dash.observe(line) && dash.windows > 0 {
                        dash.paint();
                    }
                    dash.windows == 0
                })
                .unwrap_or_else(|e| client_fail(&cli.socket, e));
                match out {
                    TailOutcome::Stopped => std::process::exit(0),
                    TailOutcome::Done(end) => {
                        // The job ended before (or right as) the first
                        // window arrived; paint what we have.
                        dash.paint();
                        std::process::exit(if dash.windows > 0 { 0 } else { end.exit });
                    }
                }
            }
            let end = client::tail_from(&cli.socket, *id, *ring, *from, |line| {
                if dash.observe(line) {
                    dash.paint();
                }
            })
            .unwrap_or_else(|e| client_fail(&cli.socket, e));
            println!(
                "done state={} exit={} delivered={} dropped={}",
                end.state, end.exit, end.delivered, end.dropped
            );
            std::process::exit(end.exit);
        }
        Command::Reports { id } => {
            let response = client::request(&cli.socket, &Request::Status { id: Some(*id) })
                .unwrap_or_else(|e| client_fail(&cli.socket, e));
            let reports = response
                .get("job")
                .and_then(|j| j.get("reports"))
                .cloned()
                .unwrap_or(Value::Arr(Box::default()));
            println!("{reports}");
        }
        Command::Oneshot(req) => {
            let response =
                client::request(&cli.socket, req).unwrap_or_else(|e| client_fail(&cli.socket, e));
            match req {
                Request::Submit(_) => {
                    // Just the id, so scripts can capture it.
                    println!(
                        "{}",
                        response.get("id").and_then(Value::as_u64).unwrap_or(0)
                    );
                }
                Request::Status { .. } => {
                    let body = response
                        .get("jobs")
                        .or_else(|| response.get("job"))
                        .cloned()
                        .unwrap_or(Value::Null);
                    println!("{body}");
                }
                Request::Health => println!("{response}"),
                Request::Cancel { id } => {
                    let state = response.get("state").and_then(Value::as_str).unwrap_or("?");
                    println!("job {id}: {state}");
                }
                Request::Shutdown => println!("daemon shutting down"),
                Request::Tail { .. } => unreachable!("handled above"),
            }
        }
    }
}
