//! The three workloads: seeded inputs, their plaintext oracles, and the
//! closed-loop clients.
//!
//! Every input comes from a per-client `StdRng` stream derived from the
//! run's seed, so a seed fixes the exact email sequence each client sends.
//! The clients use only the mailroom's public client surface
//! (`Mailroom::submit`, `MailroomClient::{connect, process, finish}`) and
//! record, but never panic on, failures and verdict mismatches.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pretzel_classifiers::{LinearModel, NGramExtractor, QuantizedModel, SparseVector};
use pretzel_core::session::EmailPayload;
use pretzel_core::topic::CandidateMode;
use pretzel_core::{PretzelConfig, ProviderModelSuite, Verdict};
use pretzel_server::{ClientSpec, ClientSpecBuilder, Mailroom, MailroomClient, SessionId};
use pretzel_transport::{memory_pair, Channel, TcpChannel};

use crate::cpu::{self, Cpu};
use crate::trace::{BenchChannel, Recorder, Side, Span, Traffic};

/// Closed-loop client threads (one connection each).
pub const CLIENTS: usize = 2;

/// Spam model features (the paper's 4096-feature spam filter).
pub const SPAM_FEATURES: usize = 4096;
const TOPIC_FEATURES: usize = 64;
const TOPIC_CLASSES: usize = 4;
const VIRUS_BUCKETS: usize = 256;
/// Search vocabulary shared by all bodies; posting lists stay short.
const SEARCH_VOCAB: u64 = 4096;
/// Index rounds (writes) per keyword query (read) on `search-tcp`.
const INDEX_PER_QUERY: u64 = 4;
/// Emails a `search-tcp` session indexes before the client finishes it and
/// reconnects, so index size and query cost stay the same all run long.
const MAILBOX: u64 = 4096;
/// Emails a churn session carries before `finish`.
const CHURN_EMAILS: u64 = 2;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One long spam session per client, one email per round.
    SpamOnline,
    /// Short spam → virus → topic sessions, two emails each.
    SessionChurn,
    /// Search sessions of [`MAILBOX`] emails over loopback TCP.
    SearchTcp,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::SpamOnline,
        Workload::SessionChurn,
        Workload::SearchTcp,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpamOnline => "spam-online",
            Workload::SessionChurn => "session-churn",
            Workload::SearchTcp => "search-tcp",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Each client's first this-many emails form the deterministic prefix
    /// that `bytes_per_email` and the verdict digest are computed over
    /// (whole sessions on churn).
    pub fn prefix_emails(self) -> u64 {
        match self {
            Workload::SpamOnline | Workload::SearchTcp => 256,
            Workload::SessionChurn => 4 * CHURN_EMAILS,
        }
    }
}

/// The provider's models plus the quantized copies the oracles evaluate.
pub struct Suite {
    /// What the mailroom serves.
    pub suite: ProviderModelSuite,
    spam: QuantizedModel,
    topic: QuantizedModel,
    virus: QuantizedModel,
}

/// The random linear model `throughput_mailroom` serves (negative
/// log-probability-like weights), reproduced here seed for seed.
fn synthetic_model(num_features: usize, num_classes: usize, seed: u64) -> LinearModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = (0..num_classes)
        .map(|_| {
            (0..num_features)
                .map(|_| -rng.gen_range(0.1..12.0f64))
                .collect()
        })
        .collect();
    let bias = (0..num_classes)
        .map(|_| -rng.gen_range(0.1..4.0f64))
        .collect();
    LinearModel { weights, bias }
}

/// Builds the paper-scale suite: the 4096-feature spam model and the
/// topic/virus shapes `throughput_mailroom` uses at paper scale.
pub fn build_suite() -> Suite {
    let config = PretzelConfig::paper();
    let suite = ProviderModelSuite {
        spam: synthetic_model(SPAM_FEATURES, 2, 11),
        topic: synthetic_model(TOPIC_FEATURES, TOPIC_CLASSES, 12),
        topic_mode: CandidateMode::Full,
        virus: synthetic_model(VIRUS_BUCKETS, 2, 13),
        virus_extractor: NGramExtractor::new(3, VIRUS_BUCKETS),
        config: config.clone(),
    };
    let q = |m: &LinearModel| QuantizedModel::from_model(m, config.weight_bits);
    Suite {
        spam: q(&suite.spam),
        topic: q(&suite.topic),
        virus: q(&suite.virus),
        suite,
    }
}

impl Suite {
    fn config(&self) -> &PretzelConfig {
        &self.suite.config
    }

    fn predict(&self, model: &QuantizedModel, x: &SparseVector) -> usize {
        model.predict(&model.protocol_features(x, self.config().freq_bits))
    }

    /// Plaintext spam verdict of the quantized model.
    pub fn is_spam(&self, x: &SparseVector) -> bool {
        self.predict(&self.spam, x) == 1
    }

    fn is_malicious(&self, attachment: &[u8]) -> bool {
        self.predict(&self.virus, &self.suite.virus_extractor.extract(attachment)) == 1
    }

    fn topic(&self, x: &SparseVector) -> usize {
        self.predict(&self.topic, x)
    }
}

/// Draws a Pareto-distributed count in `min..=max` (shape 1.2).
fn heavy_tailed(rng: &mut StdRng, min: f64, max: usize) -> usize {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    ((min / u.powf(1.0 / 1.2)) as usize).clamp(min as usize, max)
}

/// A spam-model email: a heavy-tailed number of distinct tokens (median
/// ~14, capped at 512) with small counts.
pub fn spam_email(rng: &mut StdRng) -> SparseVector {
    let tokens = heavy_tailed(rng, 8.0, 512);
    random_tokens(rng, tokens, SPAM_FEATURES)
}

fn random_tokens(rng: &mut StdRng, tokens: usize, features: usize) -> SparseVector {
    SparseVector::from_pairs(
        (0..tokens)
            .map(|_| (rng.gen_range(0..features), rng.gen_range(1..4u32)))
            .collect(),
    )
}

fn topic_email(rng: &mut StdRng) -> SparseVector {
    let tokens = rng.gen_range(5..30usize);
    random_tokens(rng, tokens, TOPIC_FEATURES)
}

fn attachment(rng: &mut StdRng) -> Vec<u8> {
    let len = heavy_tailed(rng, 64.0, 4096);
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

/// One search session's plaintext index: shared word → doc ids in index
/// order. Each body's unique `msg<doc>` token has exactly its own doc as
/// posting, so it is not stored.
struct PlainIndex {
    /// High bits of this session's doc ids: client and session number.
    base: u64,
    words: BTreeMap<u64, Vec<u64>>,
    docs: u64,
}

impl PlainIndex {
    fn new(client: usize, session: u64) -> PlainIndex {
        PlainIndex {
            base: ((client as u64) << 48) | (session << 32),
            words: BTreeMap::new(),
            docs: 0,
        }
    }

    /// A fresh body for the next doc: one unique token plus 3–12 words of
    /// the shared vocabulary. Returns `(doc_id, body, distinct keywords)`.
    fn next_body(&mut self, rng: &mut StdRng) -> (u64, String, usize) {
        let doc = self.base | self.docs;
        self.docs += 1;
        let mut words: Vec<u64> = (0..rng.gen_range(3..13))
            .map(|_| rng.gen_range(0..SEARCH_VOCAB))
            .collect();
        let mut body = format!("msg{doc}");
        for w in &words {
            body.push_str(&format!(" w{w}"));
        }
        words.sort_unstable();
        words.dedup();
        for &w in &words {
            self.words.entry(w).or_default().push(doc);
        }
        (doc, body, words.len() + 1)
    }

    /// A query and its expected hits: half the time an indexed doc's unique
    /// token (one hit), half the time a shared word (zero or more hits).
    fn next_query(&self, rng: &mut StdRng) -> (String, Vec<u64>) {
        if self.docs > 0 && rng.gen_bool(0.5) {
            let doc = self.base | rng.gen_range(0..self.docs);
            (format!("msg{doc}"), vec![doc])
        } else {
            let w = rng.gen_range(0..SEARCH_VOCAB);
            let hits = self.words.get(&w).cloned().unwrap_or_default();
            (format!("w{w}"), hits)
        }
    }
}

/// Traffic of a client's deterministic prefix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Prefix {
    /// Bytes the client sent.
    pub bytes_up: u64,
    /// Bytes the client received.
    pub bytes_down: u64,
    /// Messages in both directions.
    pub messages: u64,
    /// Emails in the prefix.
    pub emails: u64,
}

/// What one client thread observed.
#[derive(Default)]
pub struct ClientRun {
    /// Session-open latencies (submit/connect until `connect` returns), ms.
    pub opens_ms: Vec<f64>,
    /// Email-round latencies, ms.
    pub emails_ms: Vec<f64>,
    /// Query-round latencies (search reads), ms.
    pub queries_ms: Vec<f64>,
    /// Session opens and rounds attempted.
    pub attempted: u64,
    /// Failed or refused opens and rounds.
    pub failed: u64,
    /// Verdicts that disagree with the plaintext oracle.
    pub mismatches: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// This thread's CPU over its loop.
    pub cpu: Option<Cpu>,
    /// How long the loop ran, seconds.
    pub seconds: f64,
    /// Traffic of the deterministic prefix.
    pub prefix: Option<Prefix>,
    /// FNV-1a digest of the prefix's verdicts.
    pub digest: u64,
    /// Topic sessions: provider-side topics the oracle expects.
    pub topic_checks: Vec<(SessionId, Vec<usize>)>,
    /// Client model storage of each opened session, bytes.
    pub model_bytes: Vec<usize>,
    /// Operation spans (`connect`, `process`, `query`) when traced.
    pub spans: Vec<Span>,
}

impl ClientRun {
    /// Emails completed (search queries are reads, not emails).
    pub fn emails(&self) -> u64 {
        self.emails_ms.len() as u64
    }

    fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(what.to_string());
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a client needs from the run.
pub struct Ctx<'a> {
    /// The serving mailroom.
    pub mailroom: &'a Mailroom,
    /// Models and oracles.
    pub suite: &'a Suite,
    /// Present on traced runs.
    pub recorder: Option<Arc<Recorder>>,
    /// No new round or session starts after this.
    pub deadline: Instant,
    /// The run's seed.
    pub seed: u64,
    /// Benchmark session numbers, shared by both channel ends.
    pub next_session: AtomicU64,
    /// The acceptor's loopback link (`search-tcp`).
    pub tcp: Option<TcpLink>,
    /// Emails in each client's deterministic prefix.
    pub prefix_emails: u64,
    /// Clients still owing their prefix (and not failed).
    pub pending: AtomicUsize,
    /// Session boundaries of `session-churn`.
    pub cycle: Cycle,
}

impl Ctx<'_> {
    /// Whether work continues: until the deadline, and past it until every
    /// client that has not failed completed its prefix.
    fn open(&self) -> bool {
        Instant::now() < self.deadline || self.pending.load(Ordering::SeqCst) > 0
    }
}

/// Lines the `session-churn` clients up at every session boundary, so the
/// pairing of session kinds (spam with virus, virus with topic, topic with
/// spam), and with it the CPU contention between them, is the same in
/// every run.
pub struct Cycle {
    barrier: Barrier,
    go: AtomicBool,
}

impl Cycle {
    /// A gate for `clients` threads.
    pub fn new(clients: usize) -> Cycle {
        Cycle {
            barrier: Barrier::new(clients),
            go: AtomicBool::new(false),
        }
    }

    /// Waits for every client; all of them get the same answer to whether
    /// another session starts.
    fn next(&self, ctx: &Ctx<'_>) -> bool {
        if self.barrier.wait().is_leader() {
            self.go.store(ctx.open(), Ordering::SeqCst);
        }
        self.barrier.wait();
        self.go.load(Ordering::SeqCst)
    }
}

/// How `search-tcp` clients reach the acceptor. A client holds `order`
/// while it connects and sends its session number down it, so the acceptor
/// pairs its i-th accepted connection with the i-th number.
pub struct TcpLink {
    /// The acceptor's address.
    pub addr: SocketAddr,
    /// Session numbers, in connect order.
    pub order: Mutex<mpsc::Sender<u64>>,
}

/// One client's state: its input and protocol RNG streams, its traffic
/// counters, and the span it has open.
struct Client<'a> {
    ctx: &'a Ctx<'a>,
    index: usize,
    inputs: StdRng,
    rng: StdRng,
    traffic: Arc<Traffic>,
    parent: Arc<AtomicU64>,
    run: ClientRun,
}

/// A live client session over a boxed channel end.
type Session = MailroomClient<Box<dyn Channel>>;

/// An operation span in progress.
struct Op {
    id: u64,
    start: u64,
    started: Instant,
}

impl<'a> Client<'a> {
    fn op(&self) -> Op {
        let (id, start) = match &self.ctx.recorder {
            Some(r) => {
                let id = r.next_id();
                self.parent.store(id, Ordering::Relaxed);
                (id, r.now())
            }
            None => (0, 0),
        };
        Op {
            id,
            start,
            started: Instant::now(),
        }
    }

    /// Closes an operation span, returning its latency in ms.
    fn close(&mut self, op: Op, name: &'static str, session: u64) -> f64 {
        let ms = op.started.elapsed().as_secs_f64() * 1e3;
        if let Some(r) = &self.ctx.recorder {
            self.run.spans.push(Span {
                id: op.id,
                parent: None,
                session,
                side: Side::Client,
                name,
                start: op.start,
                end: r.now(),
                bytes: 0,
            });
        }
        ms
    }

    fn open_memory(&mut self, spec: &ClientSpec) -> Option<(Session, u64, SessionId)> {
        let session = self.ctx.next_session.fetch_add(1, Ordering::Relaxed);
        self.run.attempted += 1;
        let op = self.op();
        let (provider_end, client_end) = memory_pair();
        let provider = BenchChannel::provider(provider_end, self.ctx.recorder.as_ref(), session);
        let id = match self.ctx.mailroom.submit(provider) {
            Ok(id) => id,
            Err(e) => {
                self.fail(format!("submit: {e}"));
                return None;
            }
        };
        let channel: Box<dyn Channel> = Box::new(self.client_channel(client_end, session));
        self.connect(channel, spec, op, session)
            .map(|c| (c, session, id))
    }

    fn open_tcp(&mut self, spec: &ClientSpec) -> Option<(Session, u64)> {
        let link = self
            .ctx
            .tcp
            .as_ref()
            .expect("search-tcp runs with an acceptor");
        self.run.attempted += 1;
        let order = link.order.lock().expect("order lock poisoned");
        let session = self.ctx.next_session.fetch_add(1, Ordering::Relaxed);
        let op = self.op();
        let tcp = TcpChannel::connect(link.addr);
        if tcp.is_ok() {
            // The acceptor outlives every client, so the send succeeds.
            let _ = order.send(session);
        }
        drop(order);
        let tcp = match tcp {
            Ok(tcp) => tcp,
            Err(e) => {
                self.fail(format!("tcp connect: {e}"));
                return None;
            }
        };
        let channel: Box<dyn Channel> = Box::new(self.client_channel(tcp, session));
        self.connect(channel, spec, op, session)
            .map(|c| (c, session))
    }

    fn client_channel<C: Channel>(&self, inner: C, session: u64) -> BenchChannel<C> {
        BenchChannel::client(
            inner,
            Arc::clone(&self.traffic),
            self.ctx.recorder.as_ref(),
            session,
            Arc::clone(&self.parent),
        )
    }

    fn connect(
        &mut self,
        channel: Box<dyn Channel>,
        spec: &ClientSpec,
        op: Op,
        session: u64,
    ) -> Option<Session> {
        let result = MailroomClient::connect(channel, spec, &mut self.rng);
        let ms = self.close(op, "connect", session);
        match result {
            Ok(client) => {
                self.run.opens_ms.push(ms);
                self.run.model_bytes.push(client.model_storage_bytes());
                Some(client)
            }
            Err(e) => {
                self.fail(format!("connect: {e}"));
                None
            }
        }
    }

    /// Runs one round. Returns the verdict, or `None` after recording the
    /// failure (the session is then unusable).
    fn round(
        &mut self,
        client: &mut Session,
        payload: &EmailPayload,
        session: u64,
        query: bool,
    ) -> Option<Verdict> {
        self.run.attempted += 1;
        let op = self.op();
        let result = client.process(payload, &mut self.rng);
        let ms = self.close(op, if query { "query" } else { "process" }, session);
        match result {
            Ok(verdict) => {
                if query {
                    self.run.queries_ms.push(ms);
                } else {
                    self.run.emails_ms.push(ms);
                }
                Some(verdict)
            }
            Err(e) => {
                self.fail(format!("round: {e}"));
                None
            }
        }
    }

    /// Scores a verdict against the oracle and folds prefix verdicts into
    /// the digest.
    fn check(&mut self, ok: bool, verdict: &Verdict) {
        if !ok {
            self.run.mismatches += 1;
            if self.run.errors.len() < 4 {
                self.run
                    .errors
                    .push(format!("verdict mismatch: {verdict:?}"));
            }
        }
        if self.run.prefix.is_none() {
            self.run.digest = fnv(self.run.digest, format!("{verdict:?}").as_bytes());
        }
    }

    fn fail(&mut self, what: impl std::fmt::Display) {
        if self.run.prefix.is_none() && self.run.failed == 0 {
            self.ctx.pending.fetch_sub(1, Ordering::SeqCst);
        }
        self.run.fail(what);
    }

    fn snapshot_prefix(&mut self) {
        let emails = self.run.emails();
        if self.run.prefix.is_none() && emails >= self.ctx.prefix_emails {
            if self.run.failed == 0 {
                self.ctx.pending.fetch_sub(1, Ordering::SeqCst);
            }
            let (bytes_up, bytes_down, messages) = self.traffic.snapshot();
            self.run.prefix = Some(Prefix {
                bytes_up,
                bytes_down,
                messages,
                emails,
            });
        }
    }

    fn finish(&mut self, client: Session) {
        if let Err(e) = client.finish() {
            self.fail(format!("finish: {e}"));
        }
    }

    /// Whether to start another round or session: until the deadline, and
    /// past it until the deterministic prefix is complete (unless a failure
    /// already ended the prefix's chances).
    fn live(&self) -> bool {
        Instant::now() < self.ctx.deadline || (self.run.prefix.is_none() && self.run.failed == 0)
    }

    fn spam_online(&mut self) {
        let spec = ClientSpec::spam(self.ctx.suite.config().clone());
        let Some((mut client, session, _)) = self.open_memory(&spec) else {
            return;
        };
        while self.live() {
            let email = spam_email(&mut self.inputs);
            let Some(verdict) = self.round(
                &mut client,
                &EmailPayload::Tokens(email.clone()),
                session,
                false,
            ) else {
                return;
            };
            let ok = verdict
                == Verdict::Spam {
                    is_spam: self.ctx.suite.is_spam(&email),
                };
            self.check(ok, &verdict);
            self.snapshot_prefix();
        }
        self.finish(client);
    }

    fn session_churn(&mut self) {
        let config = self.ctx.suite.config().clone();
        let mut turn = self.index;
        while self.ctx.cycle.next(self.ctx) {
            let kind = turn % 3;
            turn += 1;
            let spec = match kind {
                0 => ClientSpec::spam(config.clone()),
                1 => ClientSpec::virus(config.clone()),
                _ => ClientSpecBuilder::topic(config.clone())
                    .topic_mode(CandidateMode::Full)
                    .build(),
            };
            let Some((mut client, session, id)) = self.open_memory(&spec) else {
                continue;
            };
            let mut topics = Vec::new();
            let mut healthy = true;
            for _ in 0..CHURN_EMAILS {
                let (payload, expected) = match kind {
                    0 => {
                        let email = spam_email(&mut self.inputs);
                        let is_spam = self.ctx.suite.is_spam(&email);
                        (EmailPayload::Tokens(email), Verdict::Spam { is_spam })
                    }
                    1 => {
                        let bytes = attachment(&mut self.inputs);
                        let is_malicious = self.ctx.suite.is_malicious(&bytes);
                        (
                            EmailPayload::Attachment(bytes),
                            Verdict::Virus { is_malicious },
                        )
                    }
                    _ => {
                        let email = topic_email(&mut self.inputs);
                        topics.push(self.ctx.suite.topic(&email));
                        let candidates = (0..TOPIC_CLASSES).collect();
                        (EmailPayload::Tokens(email), Verdict::Topic { candidates })
                    }
                };
                let Some(verdict) = self.round(&mut client, &payload, session, false) else {
                    healthy = false;
                    break;
                };
                self.check(verdict == expected, &verdict);
            }
            if !healthy {
                continue;
            }
            self.finish(client);
            if kind == 2 {
                self.run.topic_checks.push((id, topics));
            }
            self.snapshot_prefix();
        }
    }

    fn search_tcp(&mut self) {
        let spec = ClientSpec::search(self.ctx.suite.config().clone());
        let mut mailboxes = 0;
        while self.live() {
            let Some((mut client, session)) = self.open_tcp(&spec) else {
                return;
            };
            let mut index = PlainIndex::new(self.index, mailboxes);
            mailboxes += 1;
            let mut rounds = 0u64;
            while self.live() && index.docs < MAILBOX {
                rounds += 1;
                let query = rounds.is_multiple_of(INDEX_PER_QUERY + 1);
                let (payload, oracle) = if query {
                    let (keyword, hits) = index.next_query(&mut self.inputs);
                    (EmailPayload::SearchQuery(keyword), Err(hits))
                } else {
                    let (doc_id, body, keywords) = index.next_body(&mut self.inputs);
                    (EmailPayload::SearchIndex { doc_id, body }, Ok(keywords))
                };
                let Some(verdict) = self.round(&mut client, &payload, session, query) else {
                    return;
                };
                let ok = match (&verdict, oracle) {
                    (Verdict::SearchIndexed { postings }, Ok(keywords)) => *postings == keywords,
                    (Verdict::SearchHits { ids, total }, Err(expected)) => {
                        let mut got = ids.clone();
                        got.sort_unstable();
                        *total == expected.len() as u64 && got == expected
                    }
                    _ => false,
                };
                self.check(ok, &verdict);
                self.snapshot_prefix();
            }
            self.finish(client);
        }
    }
}

/// Runs one closed-loop client until the deadline.
pub fn run_client(ctx: &Ctx<'_>, workload: Workload, index: usize) -> ClientRun {
    let stream = ctx.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (index as u64 + 1);
    let mut client = Client {
        ctx,
        index,
        inputs: StdRng::seed_from_u64(stream),
        rng: StdRng::seed_from_u64(!stream),
        traffic: Arc::default(),
        parent: Arc::default(),
        run: ClientRun {
            digest: FNV_OFFSET,
            ..ClientRun::default()
        },
    };
    let cpu_start = cpu::this_thread();
    let start = Instant::now();
    match workload {
        Workload::SpamOnline => client.spam_online(),
        Workload::SessionChurn => client.session_churn(),
        Workload::SearchTcp => client.search_tcp(),
    }
    let mut run = client.run;
    run.seconds = start.elapsed().as_secs_f64();
    run.cpu = cpu_start.zip(cpu::this_thread()).map(|(a, b)| b.since(a));
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_classifiers::Tokenizer;

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (
                spam_email(&mut rng),
                attachment(&mut rng),
                topic_email(&mut rng),
            )
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn token_counts_are_heavy_tailed_and_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let counts: Vec<usize> = (0..4000)
            .map(|_| heavy_tailed(&mut rng, 8.0, 512))
            .collect();
        assert!(counts.iter().all(|&c| (8..=512).contains(&c)));
        let big = counts.iter().filter(|&&c| c >= 64).count();
        // Pareto(1.2) from 8: P(X ≥ 64) = 8^-1.2 ≈ 8%.
        assert!((120..520).contains(&big), "{big} of 4000 draws ≥ 64");
    }

    #[test]
    fn plain_index_tracks_postings_per_keyword() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut index = PlainIndex::new(1, 2);
        let (doc, body, keywords) = index.next_body(&mut rng);
        assert_eq!(doc, (1 << 48) | (2 << 32));
        let distinct: std::collections::BTreeSet<_> = body.split(' ').collect();
        assert_eq!(keywords, distinct.len());
        assert_eq!(
            Tokenizer::new().tokenize(&body).len(),
            body.split(' ').count()
        );
        for _ in 0..20 {
            let (keyword, hits) = index.next_query(&mut rng);
            let expected = body.split(' ').any(|w| w == keyword);
            assert_eq!(hits, if expected { vec![doc] } else { vec![] }, "{keyword}");
        }
    }
}
