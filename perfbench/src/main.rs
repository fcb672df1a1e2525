//! Paper-scale mailroom benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spam-online --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Starts a `Mailroom` (default workers, default `BankConfig`) serving
//! `PretzelConfig::paper()`, prefills its bank, then drives it closed-loop
//! from [`workload::CLIENTS`] client threads for `--seconds`. Every verdict
//! is checked against a plaintext oracle. The last stdout line is one JSON
//! object: `--trace 0` reports the end-to-end metrics of an untraced run,
//! `--trace 1` the per-layer metrics of a traced run (see `README.md`).
//! The command exits non-zero on any failure or verdict mismatch.

mod cpu;
mod layers;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use pretzel_core::bank::BankConfig;
use pretzel_server::{Mailroom, MailroomConfig, MailroomReport, ReservoirStats, SessionState};
use pretzel_transport::{TcpAcceptor, TcpChannel};

use stats::{median, Summary};
use trace::{overlap_len, self_time, BenchChannel, Recorder, Side, Span};
use workload::{
    build_suite, run_client, ClientRun, Ctx, Cycle, Prefix, Suite, TcpLink, Workload, CLIENTS,
};

/// Set-ups per run; `setup_s` is their median. Bank prefill runs on one
/// producer thread, and its time can swing by 2x from second to second with
/// the load on shared cores, so the median is taken over several seconds.
const SETUPS: usize = 15;
/// Thread-name prefixes of the provider's threads.
const PROVIDER_THREADS: [&str; 2] = ["mailroom-worker", "bank-producer"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(name).ok_or(format!(
            "unknown workload {name:?} (spam-online, session-churn, search-tcp)"
        ))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))
            .and_then(|s: f64| {
                (s > 0.0)
                    .then_some(s)
                    .ok_or("--seconds must be positive".to_string())
            })?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
    })
}

/// A started mailroom with its bank prefilled.
struct Setup {
    suite: Suite,
    mailroom: Mailroom,
    seconds: f64,
    prefill_s: f64,
    full: bool,
}

/// Suite build + mailroom start + bank prefill.
fn setup() -> Setup {
    let start = Instant::now();
    let suite = build_suite();
    let mailroom = Mailroom::start(
        suite.suite.clone(),
        MailroomConfig::builder()
            .bank(BankConfig::default())
            .build(),
    );
    let prefill = Instant::now();
    let full = mailroom.wait_until_bank_full(Duration::from_secs(60));
    Setup {
        suite,
        mailroom,
        seconds: start.elapsed().as_secs_f64(),
        prefill_s: prefill.elapsed().as_secs_f64(),
        full,
    }
}

/// One timed window against one mailroom.
struct Window {
    clients: Vec<ClientRun>,
    wall_s: f64,
    /// Workers' and producers' CPU over the window (`None`: no schedstat).
    provider: Option<Vec<cpu::Cpu>>,
    report: MailroomReport,
    spans: Vec<Span>,
    /// Topic sessions whose provider-side topics disagree with the oracle.
    topic_mismatches: u64,
    full: bool,
}

impl Window {
    fn emails(&self) -> u64 {
        self.clients.iter().map(ClientRun::emails).sum()
    }

    fn per_email(&self, total: f64) -> f64 {
        total / self.emails().max(1) as f64
    }

    fn samples(&self, pick: impl Fn(&ClientRun) -> &Vec<f64>) -> Summary {
        let all: Vec<f64> = self.clients.iter().flat_map(|c| pick(c).clone()).collect();
        Summary::of(&all)
    }

    /// Emails per second: each client's emails over its own loop time,
    /// summed, so the clients' staggered last sessions do not dilute it.
    fn rate(&self) -> f64 {
        self.clients
            .iter()
            .map(|c| c.emails() as f64 / c.seconds.max(1e-9))
            .sum()
    }

    fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.failed + c.mismatches)
            .sum::<u64>()
            + self.topic_mismatches
    }

    fn sessions_in(&self, pick: impl Fn(&SessionState) -> bool) -> usize {
        self.report
            .sessions
            .iter()
            .filter(|s| pick(&s.state))
            .count()
    }

    /// Every reservoir conserves `produced == drawn + depth`.
    fn bank_conserved(&self) -> bool {
        bank_conserved(&self.report.reservoirs)
    }

    /// The clients' prefix verdict digests, combined.
    fn digest(&self) -> u64 {
        self.clients.iter().fold(0, |d, c| d ^ c.digest)
    }

    fn correct(&self) -> bool {
        self.failed() == 0
            && self.full
            && self.bank_conserved()
            && self.sessions_in(|s| *s != SessionState::Completed) == 0
            && self.clients.iter().all(|c| c.prefix.is_some())
    }

    fn prefix(&self) -> Prefix {
        self.clients
            .iter()
            .filter_map(|c| c.prefix)
            .fold(Prefix::default(), |a, p| Prefix {
                bytes_up: a.bytes_up + p.bytes_up,
                bytes_down: a.bytes_down + p.bytes_down,
                messages: a.messages + p.messages,
                emails: a.emails + p.emails,
            })
    }

    fn provider_cpu(&self, group: usize) -> Option<cpu::Cpu> {
        self.provider.as_ref().map(|g| g[group])
    }

    /// CPU ms per email of a provider thread group; falls back to wall
    /// clock per email when schedstat is missing.
    fn provider_cpu_ms(&self, groups: &[usize]) -> f64 {
        let ns: u64 = groups
            .iter()
            .map(|&g| self.provider_cpu(g).map_or(0, |c| c.cpu_ns))
            .sum();
        match self.provider {
            Some(_) => self.per_email(ns as f64 / 1e6),
            None => self.per_email(self.wall_s * 1e3),
        }
    }
}

fn bank_conserved(reservoirs: &[ReservoirStats]) -> bool {
    reservoirs.iter().all(|r| r.produced == r.drawn + r.depth)
}

fn run_window(
    setup: Setup,
    workload: Workload,
    seed: u64,
    seconds: f64,
    prefix_emails: u64,
    recorder: Option<Arc<Recorder>>,
) -> Window {
    let Setup {
        suite,
        mailroom,
        full,
        ..
    } = setup;
    let acceptor = (workload == Workload::SearchTcp)
        .then(|| TcpAcceptor::bind("127.0.0.1:0").expect("bind a loopback port"));
    let (order, sessions) = mpsc::channel::<u64>();
    let ctx = Ctx {
        mailroom: &mailroom,
        suite: &suite,
        recorder: recorder.clone(),
        deadline: Instant::now() + Duration::from_secs_f64(seconds),
        seed,
        next_session: AtomicU64::new(0),
        tcp: acceptor.as_ref().map(|a| TcpLink {
            addr: a.local_addr().expect("bound address"),
            order: Mutex::new(order),
        }),
        prefix_emails,
        pending: AtomicUsize::new(CLIENTS),
        cycle: Cycle::new(CLIENTS),
    };
    let provider_before = cpu::threads_by_prefix(&PROVIDER_THREADS);
    let clients: Vec<ClientRun> = std::thread::scope(|s| {
        if let Some(acceptor) = &acceptor {
            let (mailroom, recorder) = (&mailroom, &recorder);
            s.spawn(move || {
                // The i-th accepted connection carries the i-th session
                // number a client announced; `u64::MAX` means stop.
                while let Ok((channel, _)) = acceptor.accept() {
                    match sessions.recv() {
                        Ok(session) if session != u64::MAX => {
                            let provider =
                                BenchChannel::provider(channel, recorder.as_ref(), session);
                            // A refused submit reaches the client as a busy ack.
                            let _ = mailroom.submit(provider);
                        }
                        _ => break,
                    }
                }
            });
        }
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let ctx = &ctx;
                std::thread::Builder::new()
                    .name(format!("bench-client-{i}"))
                    .spawn_scoped(s, move || run_client(ctx, workload, i))
                    .expect("spawn client thread")
            })
            .collect();
        let clients = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("client threads record failures, never panic")
            })
            .collect();
        if let Some(link) = &ctx.tcp {
            // Wake the acceptor with one last connection and tell it to stop.
            let order = link.order.lock().expect("order lock poisoned");
            let wake = TcpChannel::connect(link.addr);
            let _ = order.send(u64::MAX);
            drop(wake);
        }
        clients
    });
    let wall_s = clients.iter().map(|c| c.seconds).fold(0.0, f64::max);
    // Sample before shutdown: the worker and producer threads exit there.
    let provider = provider_before
        .zip(cpu::threads_by_prefix(&PROVIDER_THREADS))
        .map(|(a, b)| b.iter().zip(&a).map(|(b, a)| b.since(*a)).collect());
    drop(ctx);
    let report = mailroom.shutdown();
    let topic_mismatches = clients
        .iter()
        .flat_map(|c| &c.topic_checks)
        .filter(|(id, expected)| {
            report
                .sessions
                .iter()
                .find(|s| s.id == *id)
                .is_none_or(|s| s.topics != *expected)
        })
        .count() as u64;
    let mut spans = recorder.map(|r| r.take()).unwrap_or_default();
    spans.extend(clients.iter().flat_map(|c| c.spans.iter().cloned()));
    Window {
        clients,
        wall_s,
        provider,
        report,
        spans,
        topic_mismatches,
        full,
    }
}

/// Metric name → (value, unit), in output order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(w: &Window, setup_s: f64) -> Metrics {
    let email = w.samples(|c| &c.emails_ms);
    let prefix = w.prefix();
    let client_ns: u64 = w
        .clients
        .iter()
        .map(|c| c.cpu.map_or(0, |c| c.cpu_ns))
        .sum();
    let client_ms = if w.clients.iter().all(|c| c.cpu.is_some()) {
        client_ns as f64 / 1e6
    } else {
        w.wall_s * 1e3 * CLIENTS as f64
    };
    vec![
        ("setup_s", setup_s, "s"),
        ("emails_per_s", w.rate(), "1/s"),
        ("email_ms_p50", email.p50, "ms"),
        ("email_ms_tail", email.tail_value(), "ms"),
        (
            "provider_cpu_ms_per_email",
            w.provider_cpu_ms(&[0, 1]),
            "ms",
        ),
        ("client_cpu_ms_per_email", w.per_email(client_ms), "ms"),
        (
            "bytes_per_email",
            (prefix.bytes_up + prefix.bytes_down) as f64 / prefix.emails.max(1) as f64,
            "B",
        ),
        ("rss_peak_mb", cpu::rss_peak_mb(), "MB"),
    ]
}

/// The workload-specific client-observed figures that are not defined on
/// every workload (0 where a workload has none or too few samples).
fn workload_figures(w: &Window, attempted: u64, failed: u64) -> Metrics {
    let query = w.samples(|c| &c.queries_ms);
    let open = w.samples(|c| &c.opens_ms);
    vec![
        ("query_ms_p50", query.p50, "ms"),
        ("query_ms_tail", query.tail_value(), "ms"),
        ("session_open_ms_p50", open.p50, "ms"),
        ("session_open_ms_tail", open.tail_value(), "ms"),
        (
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

/// Sorted `(start, end)` intervals of `spans`.
fn intervals<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = spans.map(|s| (s.start, s.end)).collect();
    v.sort_unstable();
    v
}

fn sum_len(v: &[(u64, u64)]) -> u64 {
    v.iter().map(|(s, e)| e - s).sum()
}

/// Per-layer figures derived from the traced window's spans.
fn span_layers(w: &Window) -> Metrics {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in &w.spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let kids = |s: &Span, name: &str| -> Vec<(u64, u64)> {
        intervals(
            children
                .get(&s.id)
                .into_iter()
                .flatten()
                .copied()
                .filter(|c| c.name == name),
        )
    };
    let mut sessions: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in &w.spans {
        sessions.entry(s.session).or_default().push(s);
    }

    let (mut client_busy, mut client_open_busy, mut client_recv, mut sends) = (0, 0, 0, 0);
    let (mut provider_recv, mut provider_busy, mut provider_open_busy) = (0, 0, 0);
    let mut queue_waits = Vec::new();
    for spans in sessions.values() {
        let of = |side: Side, name: &str| {
            intervals(
                spans
                    .iter()
                    .copied()
                    .filter(|s| s.side == side && s.name == name),
            )
        };
        let process = of(Side::Client, "process");
        let connect = of(Side::Client, "connect");
        let p_recv = of(Side::Provider, "recv");
        let p_send = of(Side::Provider, "send");
        for s in spans.iter().filter(|s| s.side == Side::Client) {
            let all: Vec<(u64, u64)> = [kids(s, "send"), kids(s, "recv")].concat();
            match s.name {
                "process" => {
                    client_busy += self_time((s.start, s.end), &all);
                    client_recv += sum_len(&kids(s, "recv"));
                    sends += sum_len(&kids(s, "send"));
                }
                "connect" => client_open_busy += self_time((s.start, s.end), &all),
                _ => {}
            }
        }
        let in_recv = overlap_len(&process, &p_recv);
        provider_recv += in_recv;
        provider_busy += sum_len(&process) - in_recv;
        sends += overlap_len(&process, &p_send);
        if let (Some(root), Some(first)) = (
            spans
                .iter()
                .find(|s| s.side == Side::Provider && s.name == "session"),
            p_recv.first(),
        ) {
            queue_waits.push((first.0 - root.start) as f64 / 1e6);
            // Provider time inside the client's connect, once the worker
            // has picked the session up, not blocked in recv.
            let started: Vec<(u64, u64)> = connect
                .iter()
                .map(|&(s, e)| (s.max(first.0), e))
                .filter(|(s, e)| s < e)
                .collect();
            provider_open_busy += sum_len(&started) - overlap_len(&started, &p_recv);
        }
    }
    let opens = w
        .clients
        .iter()
        .map(|c| c.opens_ms.len())
        .sum::<usize>()
        .max(1) as f64;
    let us = |ns: u64| w.per_email(ns as f64 / 1e3);
    vec![
        ("server.queue_wait_ms_p50", median(&queue_waits), "ms"),
        (
            "server.provider_busy_ms_per_open",
            provider_open_busy as f64 / 1e6 / opens,
            "ms",
        ),
        ("server.provider_busy_us_per_email", us(provider_busy), "us"),
        (
            "transport.client_recv_wait_us_per_email",
            us(client_recv),
            "us",
        ),
        (
            "transport.provider_recv_wait_us_per_email",
            us(provider_recv),
            "us",
        ),
        ("transport.send_us_per_email", us(sends), "us"),
        ("core.client_busy_us_per_email", us(client_busy), "us"),
        (
            "core.client_busy_ms_per_open",
            client_open_busy as f64 / 1e6 / opens,
            "ms",
        ),
    ]
}

/// Per-layer figures from CPU accounting, the mailroom report and the bank.
fn counter_layers(w: &Window, prefill_s: f64) -> Metrics {
    let prefix = w.prefix();
    let per_prefix = |x: u64| x as f64 / prefix.emails.max(1) as f64;
    let runq_ns = w.provider_cpu(0).map_or(0, |c| c.runq_ns);
    let hit = |kind: &str| {
        let rows = w.report.reservoirs.iter().filter(|r| r.kind == kind);
        let (drawn, fallbacks) = rows.fold((0, 0), |(d, f), r| (d + r.drawn, f + r.fallback_draws));
        drawn as f64 / (drawn + fallbacks).max(1) as f64
    };
    let model_bytes: Vec<f64> = w
        .clients
        .iter()
        .flat_map(|c| c.model_bytes.iter().map(|&b| b as f64))
        .collect();
    vec![
        (
            "server.worker_cpu_ms_per_email",
            w.provider_cpu_ms(&[0]),
            "ms",
        ),
        (
            "server.worker_runq_ms_per_email",
            w.per_email(runq_ns as f64 / 1e6),
            "ms",
        ),
        (
            "server.sessions_failed",
            w.sessions_in(|s| matches!(s, SessionState::Failed(_))) as f64,
            "count",
        ),
        (
            "server.sessions_rejected",
            w.sessions_in(|s| *s == SessionState::Rejected) as f64,
            "count",
        ),
        (
            "transport.messages_per_email",
            per_prefix(prefix.messages),
            "count",
        ),
        (
            "transport.bytes_up_per_email",
            per_prefix(prefix.bytes_up),
            "B",
        ),
        (
            "transport.bytes_down_per_email",
            per_prefix(prefix.bytes_down),
            "B",
        ),
        ("bank.prefill_s", prefill_s, "s"),
        ("bank.hit_ratio.garblings", hit("garblings"), "ratio"),
        ("bank.hit_ratio.base_ots", hit("base_ots"), "ratio"),
        (
            "bank.hit_ratio.zero_encryptions",
            hit("zero_encryptions"),
            "ratio",
        ),
        (
            "bank.fallbacks",
            w.report
                .reservoirs
                .iter()
                .map(|r| r.fallback_draws)
                .sum::<u64>() as f64,
            "count",
        ),
        (
            "bank.producer_cpu_ms_per_email",
            w.provider_cpu_ms(&[1]),
            "ms",
        ),
        (
            "bank.unused_at_end",
            w.report.reservoirs.iter().map(|r| r.depth).sum::<u64>() as f64,
            "count",
        ),
        (
            "core.client_model_bytes",
            model_bytes.iter().sum::<f64>() / model_bytes.len().max(1) as f64,
            "B",
        ),
    ]
}

fn print_metrics(metrics: &Metrics) {
    for (name, value, unit) in metrics {
        println!("{name:<44} {value:>16.4} {unit}");
    }
}

fn describe(label: &str, w: &Window) {
    let email = w.samples(|c| &c.emails_ms);
    let query = w.samples(|c| &c.queries_ms);
    let open = w.samples(|c| &c.opens_ms);
    println!(
        "# {label}: {} emails, {} queries, {} opens in {:.3} s; cpu accounting: {}",
        email.n,
        query.n,
        open.n,
        w.wall_s,
        if w.provider.is_some() {
            "schedstat"
        } else {
            "wall clock (schedstat missing)"
        }
    );
    for (name, s) in [
        ("email_ms", &email),
        ("query_ms", &query),
        ("session_open_ms", &open),
    ] {
        match s.tail {
            Some(t) => println!(
                "#   {name}: p50 {:.4} over {} samples; tail = p{} {:.4} ({} samples beyond)",
                s.p50, s.n, t.pct, t.value, t.beyond
            ),
            None if s.n > 0 => println!(
                "#   {name}: p50 {:.4} over {} samples; too few samples for a tail",
                s.p50, s.n
            ),
            None => {}
        }
    }
    for c in &w.clients {
        for e in &c.errors {
            println!("#   error: {e}");
        }
    }
    for s in &w.report.sessions {
        if let SessionState::Failed(why) = &s.state {
            println!("#   provider session {} failed: {why}", s.id);
        }
    }
    if !w.bank_conserved() {
        println!("#   bank accounting broken: produced != drawn + depth");
    }
    println!(
        "#   verdict digest {:016x}, prefix {:?}",
        w.digest(),
        w.prefix()
    );
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <spam-online|session-churn|search-tcp> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };

    // Set up several times, shutting each mailroom down before the next
    // set-up; the last one serves the run.
    let (mut seconds, mut prefills, mut setups_full) = (Vec::new(), Vec::new(), true);
    let mut serving = None;
    for _ in 0..SETUPS {
        if let Some(spare) = serving.replace(setup()) {
            spare.mailroom.shutdown();
        }
        let s = serving.as_ref().expect("just set up");
        seconds.push(s.seconds);
        prefills.push(s.prefill_s);
        setups_full &= s.full;
    }
    let serving = serving.expect("at least one set-up");
    let (setup_s, prefill_s) = (median(&seconds), median(&prefills));
    println!(
        "# perfbench {} seed {} for {} s, {} clients, {} hardware threads",
        args.workload.name(),
        args.seed,
        args.seconds,
        CLIENTS,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let prefix = args.workload.prefix_emails();
    let (correct, attempted, failed, metrics) = if !args.trace {
        let w = run_window(
            serving,
            args.workload,
            args.seed,
            args.seconds,
            prefix,
            None,
        );
        describe("untraced", &w);
        let (attempted, failed) = (w.attempted(), w.failed());
        print_metrics(&workload_figures(&w, attempted, failed));
        let metrics = end_to_end(&w, setup_s);
        (w.correct() && setups_full, attempted, failed, metrics)
    } else {
        // Half the time untraced (the reference for the overhead and the
        // workload figures), half traced on a fresh mailroom.
        let half = args.seconds / 2.0;
        let reference = run_window(serving, args.workload, args.seed, half, prefix, None);
        describe("untraced reference", &reference);
        let recorder = Recorder::new();
        let w = run_window(
            setup(),
            args.workload,
            args.seed,
            half,
            prefix,
            Some(recorder),
        );
        describe("traced", &w);
        // One file per workload: a later traced run replaces the last one.
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}.jsonl",
            args.workload.name()
        ));
        match trace::write_spans(&path, &w.spans) {
            Ok(()) => println!("# wrote {} spans to {}", w.spans.len(), path.display()),
            Err(e) => println!("# could not write spans to {}: {e}", path.display()),
        }
        let attempted = reference.attempted() + w.attempted();
        let failed = reference.failed() + w.failed();
        let (traced_rate, reference_rate) = (w.rate(), reference.rate());
        let prefix = w.prefix();
        let frame = (prefix.bytes_up + prefix.bytes_down) / prefix.messages.max(1);
        let mut metrics = workload_figures(&reference, attempted, failed);
        metrics.extend(span_layers(&w));
        metrics.extend(counter_layers(&w, prefill_s));
        metrics.extend(layers::layer_pass(&build_suite(), frame as usize));
        metrics.push((
            "trace.overhead_pct",
            (reference_rate / traced_rate.max(1e-9) - 1.0) * 100.0,
            "%",
        ));
        let correct = reference.correct() && w.correct() && setups_full;
        (correct, attempted, failed, metrics)
    };
    print_metrics(&metrics);
    println!("{}", json(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs only a workload's deterministic prefix: the deadline has passed
    /// at start, so every client stops as soon as its prefix is complete.
    fn prefix_only(workload: Workload, seed: u64, prefix: u64) -> Window {
        run_window(setup(), workload, seed, 0.0, prefix, None)
    }

    fn prefix_metrics(w: &Window) -> (f64, f64, u64) {
        let find = |metrics: Metrics, name: &str| {
            metrics
                .into_iter()
                .find(|m| m.0 == name)
                .map(|m| m.1)
                .expect("metric present")
        };
        (
            find(end_to_end(w, 0.0), "bytes_per_email"),
            find(counter_layers(w, 0.0), "transport.messages_per_email"),
            w.digest(),
        )
    }

    #[test]
    fn same_seed_gives_identical_traffic_and_verdicts() {
        for (workload, prefix) in [
            (Workload::SpamOnline, 6),
            (Workload::SessionChurn, 4),
            (Workload::SearchTcp, 12),
        ] {
            let runs = [
                prefix_only(workload, 7, prefix),
                prefix_only(workload, 7, prefix),
            ];
            for w in &runs {
                assert!(w.correct(), "{workload:?} run failed");
                assert_eq!(w.prefix().emails, CLIENTS as u64 * prefix, "{workload:?}");
                // Every run's bank report conserves its stock.
                assert!(
                    w.bank_conserved(),
                    "{workload:?}: {:?}",
                    w.report.reservoirs
                );
            }
            let (a, b) = (prefix_metrics(&runs[0]), prefix_metrics(&runs[1]));
            assert_eq!(a, b, "{workload:?}");
            assert!(a.0 > 0.0 && a.1 > 0.0, "{workload:?}: {a:?}");
        }
    }

    #[test]
    fn bank_conservation_flags_lost_or_invented_stock() {
        let row = |produced, drawn, depth| ReservoirStats {
            kind: "garblings",
            fingerprint: 1,
            target: 32,
            depth,
            produced,
            drawn,
            fallback_draws: 3,
        };
        assert!(bank_conserved(&[row(40, 8, 32), row(0, 0, 0)]));
        assert!(!bank_conserved(&[row(40, 8, 32), row(40, 9, 32)]));
        assert!(!bank_conserved(&[row(40, 8, 31)]));
    }
}
