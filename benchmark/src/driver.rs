//! Set-up, the untraced and traced op paths, and the closed-loop pass
//! runner.
//!
//! The untraced path is the one call a user makes (`prepare_sql` +
//! `Session::execute`, or `Server::submit` + `Ticket::wait`). The traced
//! path makes the same public calls `Engine::prepare_sql` and
//! `Executor::run` make, in the same order, with a span around each; spans
//! inside the engine are a later change.

use crate::check::{answer_of, Answer};
use crate::source::{ChunkLog, TimingSource};
use crate::trace::{Span, Tracer, OP_SPAN};
use crate::workloads::{self, Inputs, Kind, Op, Query, Sizes, TENANTS};
use bqo_core::exec::{Batch, ExecContext, PipelineBuilder};
use bqo_core::format::{write_table, FileReader};
use bqo_core::storage::ChunkSource;
use bqo_core::{
    Catalog, Engine, ExecConfig, ExecutionMetrics, KernelMode, OptimizerChoice, Request,
    RunOptions, Server, ServerConfig,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The optimizer under test.
const CHOICE: OptimizerChoice = OptimizerChoice::Bqo;

/// Exact per-op counts read off [`ExecutionMetrics`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub tuples: u64,
    pub build_rows: u64,
    pub probe_rows: u64,
    pub logical_work: u64,
    pub output_rows: u64,
    pub filters_created: u64,
    pub probed: u64,
    pub eliminated: u64,
    pub chunks_read: u64,
    pub chunks_pruned: u64,
    pub bytes_read: u64,
}

impl Counts {
    fn of(metrics: &ExecutionMetrics, output_rows: u64) -> Self {
        Counts {
            tuples: metrics.total_tuples(),
            build_rows: metrics.total_build_rows(),
            probe_rows: metrics.total_probe_rows(),
            logical_work: metrics.logical_work(),
            output_rows,
            filters_created: metrics.filters_created as u64,
            probed: metrics.filter_stats.probed,
            eliminated: metrics.filter_stats.eliminated,
            chunks_read: metrics.chunks_read,
            chunks_pruned: metrics.chunks_pruned,
            bytes_read: metrics.bytes_read,
        }
    }

    pub fn add(&mut self, other: &Counts) {
        self.tuples += other.tuples;
        self.build_rows += other.build_rows;
        self.probe_rows += other.probe_rows;
        self.logical_work += other.logical_work;
        self.output_rows += other.output_rows;
        self.filters_created += other.filters_created;
        self.probed += other.probed;
        self.eliminated += other.eliminated;
        self.chunks_read += other.chunks_read;
        self.chunks_pruned += other.chunks_pruned;
        self.bytes_read += other.bytes_read;
    }
}

/// What the warm-up pass saw for one distinct query: its answer and its exact
/// counts.
#[derive(Debug, Clone, Copy)]
pub struct Observed {
    pub answer: Answer,
    pub counts: Counts,
}

/// What writing the `.bqo` files cost (all zero for in-memory workloads).
#[derive(Debug, Default, Clone, Copy)]
pub struct FileFacts {
    pub file_bytes: u64,
    pub table_bytes: u64,
    pub write_s: f64,
}

/// A workload, set up and warm: engines (one per database), the server for
/// `serve-param`, and what the warm-up pass observed per distinct query.
#[derive(Debug)]
pub struct Env {
    pub inputs: Inputs,
    pub engines: Vec<Engine>,
    pub server: Option<Server>,
    pub chunk_log: Option<Arc<ChunkLog>>,
    pub files: FileFacts,
    pub warmup: Vec<Observed>,
    /// Clock origin shared by the tracers and the chunk log.
    pub epoch: Instant,
    data_dir: Option<PathBuf>,
}

impl Drop for Env {
    fn drop(&mut self) {
        if let Some(server) = &self.server {
            server.shutdown();
        }
        if let Some(dir) = &self.data_dir {
            // Best effort: a leftover directory is git-ignored scratch.
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Writes every table of `catalog` to a `.bqo` file under `dir` and returns
/// the catalog registering those files (buffered access), key declarations
/// carried over. With a `log`, every source is wrapped in a [`TimingSource`].
fn file_twin(
    catalog: &Catalog,
    dir: &Path,
    chunk_rows: usize,
    log: Option<&Arc<ChunkLog>>,
    facts: &mut FileFacts,
) -> Result<Catalog, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut names = catalog.table_names();
    names.sort_unstable();
    let mut twin = Catalog::new();
    for name in names {
        let table = catalog.table(name).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{name}.bqo"));
        let started = Instant::now();
        let summary = write_table(&path, &table, chunk_rows).map_err(|e| e.to_string())?;
        facts.write_s += started.elapsed().as_secs_f64();
        facts.file_bytes += summary.bytes;
        facts.table_bytes += table.byte_size() as u64;
        let reader: Arc<dyn ChunkSource> =
            Arc::new(FileReader::open(&path).map_err(|e| e.to_string())?);
        twin.register_source(match log {
            Some(log) => Arc::new(TimingSource::new(reader, Arc::clone(log))),
            None => reader,
        });
        if let Some(pk) = catalog.primary_key(name) {
            twin.declare_primary_key(name, pk)
                .map_err(|e| e.to_string())?;
        }
    }
    for fk in catalog.foreign_keys() {
        twin.declare_foreign_key(fk.clone())
            .map_err(|e| e.to_string())?;
    }
    Ok(twin)
}

/// Generates the inputs, builds engines (and files, and the server) and runs
/// the warm-up pass: everything `setup_s` covers. `traced` decorates file
/// sources so traced passes can time `read_chunk`.
pub fn setup(
    kind: Kind,
    sizes: Sizes,
    seed: u64,
    traced: bool,
    out_dir: &Path,
) -> Result<Env, String> {
    let epoch = Instant::now();
    let inputs = workloads::generate(kind, sizes, seed);
    let mut files = FileFacts::default();
    let mut data_dir = None;
    let mut chunk_log = None;
    let catalogs: Vec<Catalog> = if kind == Kind::DssFile {
        let dir = out_dir.join(format!("data-{}", std::process::id()));
        // A previous set-up of this process used the same directory.
        let _ = std::fs::remove_dir_all(&dir);
        chunk_log = traced.then(|| Arc::new(ChunkLog::new(epoch)));
        let twins = inputs
            .databases
            .iter()
            .enumerate()
            .map(|(i, catalog)| {
                file_twin(
                    catalog,
                    &dir.join(format!("db{i}")),
                    sizes.chunk_rows,
                    chunk_log.as_ref(),
                    &mut files,
                )
            })
            .collect::<Result<_, _>>();
        data_dir = Some(dir);
        twins?
    } else {
        inputs.databases.clone()
    };

    // Pinned, not inherited: `BQO_FORCE_SCALAR` must not pick the kernels.
    let config = ExecConfig::default()
        .with_kernel_mode(KernelMode::Vectorized)
        .with_num_threads(inputs.clients);
    let engines: Vec<Engine> = catalogs
        .into_iter()
        .map(|catalog| {
            let builder = Engine::builder().catalog(catalog).exec_config(config);
            if inputs.clients > 1 {
                builder.worker_threads(inputs.clients)
            } else {
                builder
            }
            .build()
            .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut env = Env {
        inputs,
        engines,
        server: None,
        chunk_log,
        files,
        warmup: Vec::new(),
        epoch,
        data_dir,
    };
    // Warm-up: every distinct query once, on one thread, straight against
    // the engine, in query order rather than op-list order — so what it
    // observes (exact counts, the memory peak) repeats under one seed and
    // does not depend on how the seed ordered the op list or on how threads
    // interleave, even on `serve-param`, whose cached plan depends on the
    // order binds arrive in. (Rows and counters are bit-identical for every
    // thread count; the served path is exercised by every timed pass.)
    for query in 0..env.inputs.queries.len() {
        let op = Op { query, tenant: 0 };
        if kind == Kind::PlanCold {
            env.engine_of(&op).plan_cache().clear();
        }
        let done = env
            .run_direct(&op, config.with_num_threads(1))
            .map_err(|f| format!("warm-up op failed: {}", f.message()))?;
        let answer = answer_of(&done.rows);
        env.warmup.push(Observed {
            answer,
            counts: Counts::of(&done.metrics, answer.rows),
        });
    }
    if kind == Kind::ServeParam {
        env.server = Some(Server::new(
            env.engines[0].clone(),
            ServerConfig::default().with_max_concurrent_queries(env.inputs.clients),
        ));
    }
    Ok(env)
}

/// Why an op produced no rows.
#[derive(Debug)]
pub enum Failure {
    /// Admission control refused the request.
    Rejected(String),
    /// Planning or execution returned `Err` (or the wait timed out).
    Failed(String),
}

impl Failure {
    pub fn message(&self) -> &str {
        match self {
            Failure::Rejected(m) | Failure::Failed(m) => m,
        }
    }
}

fn failed(e: impl std::fmt::Display) -> Failure {
    Failure::Failed(e.to_string())
}

/// A finished op: all result rows and the engine's metrics.
struct Done {
    rows: Batch,
    metrics: ExecutionMetrics,
}

impl Env {
    fn query_of(&self, op: &Op) -> &Query {
        &self.inputs.queries[op.query]
    }

    fn engine_of(&self, op: &Op) -> &Engine {
        &self.engines[self.query_of(op).database]
    }

    fn request_for(&self, op: &Op) -> Result<Request, Failure> {
        let query = self.query_of(op);
        let (tenant, priority) = TENANTS[op.tenant];
        let mut builder = Request::builder()
            .sql(query.sql.as_str())
            .optimizer(CHOICE)
            .tenant(tenant)
            .priority(priority)
            .collect_rows();
        if let Some(params) = &query.params {
            builder = builder.params(params);
        }
        builder.build().map_err(failed)
    }

    /// The one-call path: SQL text in, all result rows collected — through
    /// the server where the workload has one.
    fn run_untraced(&self, op: &Op) -> Result<Done, Failure> {
        let Some(server) = &self.server else {
            return self.run_direct(op, self.engine_of(op).exec_config());
        };
        let ticket = server
            .submit(self.request_for(op)?)
            .map_err(|e| Failure::Rejected(e.to_string()))?;
        let out = ticket.wait().map_err(failed)?;
        Ok(Done {
            rows: out.rows.ok_or_else(|| failed("no rows collected"))?,
            metrics: out.result.metrics,
        })
    }

    /// `prepare_sql`/`bind_sql` + `Session::execute` under `config`.
    fn run_direct(&self, op: &Op, config: ExecConfig) -> Result<Done, Failure> {
        let query = self.query_of(op);
        let engine = self.engine_of(op);
        let stmt = match &query.params {
            Some(params) => engine.bind_sql(&query.sql, params, CHOICE),
            None => engine.prepare_sql(&query.sql, CHOICE),
        }
        .map_err(failed)?;
        let out = engine
            .session()
            .execute(
                &stmt,
                RunOptions::new().collecting_rows().with_exec_config(config),
            )
            .map_err(failed)?;
        Ok(Done {
            rows: out.rows.ok_or_else(|| failed("no rows collected"))?,
            metrics: out.result.metrics,
        })
    }

    /// The decomposed path: the calls `prepare_sql` and `Executor::run` make,
    /// each under its own span. Returns the row count.
    fn run_traced(&self, op: &Op, tracer: &mut Tracer) -> Result<u64, Failure> {
        let query = self.query_of(op);
        let engine = self.engine_of(op);
        let catalog = engine.catalog();
        let root = tracer.reserve_id();
        let started = tracer.now_ns();
        let result = (|| {
            let (ast, _) =
                tracer.span("sql.parse", root, root, || bqo_core::sql::parse(&query.sql));
            let ast = ast.map_err(failed)?;
            let (spec, _) = tracer.span("sql.bind", root, root, || {
                bqo_core::sql::bind(&query.sql, &ast, catalog)
            });
            let spec = spec.map_err(failed)?;
            let (stmt, _) = tracer.span("core.cache.prepare", root, root, || match &query.params {
                Some(params) => engine.bind(&spec, params, CHOICE),
                None => engine.prepare(&spec, CHOICE),
            });
            let stmt = stmt.map_err(failed)?;

            let config = engine.exec_config();
            let (pipeline, _) = tracer.span("exec.build_pipeline", root, root, || {
                PipelineBuilder::new(catalog, stmt.graph(), stmt.plan(), config).build()
            });
            let mut pipeline = pipeline.map_err(failed)?;
            let pool = (config.num_threads > 1).then(|| engine.worker_pool().clone());
            let mut ctx = ExecContext::with_pool(config, pool);
            let (opened, open_span) =
                tracer.span("exec.open", root, root, || pipeline.open(&mut ctx));
            if let Some(log) = &self.chunk_log {
                // File scans read every chunk while opening.
                for (start, end) in log.drain() {
                    tracer.record("format.read_chunk", open_span, root, start, end);
                }
            }
            let mut batches = Vec::new();
            let (streamed, _) = tracer.span("exec.stream", root, root, || {
                opened?;
                while let Some(batch) = pipeline.next_batch(&mut ctx)? {
                    batches.push(batch);
                }
                Ok::<(), bqo_core::StorageError>(())
            });
            // Closing, then letting go of the operator tree (hash tables,
            // build sides) and the context (published filters), as
            // `Executor::run` does on return.
            tracer.span("exec.close", root, root, || {
                pipeline.close(&mut ctx);
                drop(pipeline);
                drop(ctx);
            });
            streamed.map_err(failed)?;
            let (rows, _) = tracer.span("exec.collect", root, root, || Batch::concat(batches));
            let count = rows.num_rows() as u64;
            tracer.span("exec.release", root, root, || drop(rows));
            Ok(count)
        })();
        let ended = tracer.now_ns();
        tracer.record_reserved(root, OP_SPAN, 0, root, started, ended);
        result
    }

    /// The served path with spans taken from outside the server: the
    /// `submit` call as timed here, queueing and running as the server
    /// reports them in `QueryOutput`. Returns the row count and the sample.
    fn run_server_traced(&self, op: &Op, tracer: &mut Tracer) -> Result<(u64, Served), Failure> {
        let server = self.server.as_ref().expect("served workload");
        let request = self.request_for(op)?;
        let root = tracer.reserve_id();
        let started = tracer.now_ns();
        let (ticket, _) = tracer.span("core.server.submit", root, root, || server.submit(request));
        let submit_ns = tracer.now_ns() - started;
        let result = ticket
            .map_err(|e| Failure::Rejected(e.to_string()))
            .and_then(|ticket| ticket.wait().map_err(failed))
            .map(|out| {
                let ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
                let (queue, wall) = (ns(out.queue_wait), ns(out.total_wall));
                tracer.record("core.server.queue", root, root, started, started + queue);
                tracer.record(
                    "core.server.run",
                    root,
                    root,
                    started + queue,
                    started + wall,
                );
                let served = Served {
                    submit_us: submit_ns as f64 / 1e3,
                    queue_wait_ms: queue as f64 / 1e6,
                    overhead_ms: wall
                        .saturating_sub(queue)
                        .saturating_sub(ns(out.result.metrics.elapsed))
                        as f64
                        / 1e6,
                };
                (out.rows.map_or(0, |rows| rows.num_rows() as u64), served)
            });
        let ended = tracer.now_ns();
        tracer.record_reserved(root, OP_SPAN, 0, root, started, ended);
        result
    }
}

/// One served op as seen from outside the server.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub submit_us: f64,
    pub queue_wait_ms: f64,
    /// `total_wall − queue_wait − metrics.elapsed`: planning, dispatch and
    /// ticket hand-off.
    pub overhead_ms: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// The one-call path, no spans: what end-to-end metrics are taken from.
    Untraced,
    /// The decomposed path against the engine, one span per layer call.
    Traced,
    /// The served path with `core.server.*` spans (`serve-param` only).
    ServerTraced,
}

/// One pass over the op list (or, while it runs, one client's share of it).
#[derive(Debug)]
pub struct PassResult {
    pub kind: PassKind,
    /// One client: the op latencies summed (work between ops, such as
    /// `plan-cold` clearing the cache, is outside the timed interval).
    /// Several clients: first start to last end.
    pub wall_s: f64,
    pub latencies_ms: Vec<f64>,
    /// The distinct query behind each entry of `latencies_ms`.
    pub queries: Vec<usize>,
    pub failed: u64,
    pub rejected: u64,
    /// Ops whose row count differed from the reference.
    pub wrong_rows: u64,
    pub spans: Vec<Span>,
    pub served: Vec<Served>,
}

impl PassResult {
    fn empty(kind: PassKind) -> Self {
        PassResult {
            kind,
            wall_s: 0.0,
            latencies_ms: Vec::new(),
            queries: Vec::new(),
            failed: 0,
            rejected: 0,
            wrong_rows: 0,
            spans: Vec::new(),
            served: Vec::new(),
        }
    }

    /// Folds another client's share of the same pass into this one.
    fn absorb(&mut self, mut other: PassResult) {
        self.latencies_ms.append(&mut other.latencies_ms);
        self.queries.append(&mut other.queries);
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.wrong_rows += other.wrong_rows;
        self.spans.append(&mut other.spans);
        self.served.append(&mut other.served);
    }

    pub fn ops(&self) -> usize {
        self.latencies_ms.len()
    }

    pub fn throughput_qps(&self) -> f64 {
        self.ops() as f64 / self.wall_s
    }
}

impl Env {
    /// One client's closed loop over `ops`, with when it started and ended.
    /// `stream` numbers this client's tracer: unique per client per pass.
    fn run_client(
        &self,
        kind: PassKind,
        stream: usize,
        ops: impl Iterator<Item = Op>,
        expected_rows: &[u64],
    ) -> (Instant, Instant, PassResult) {
        let mut tracer = Tracer::new(self.epoch, stream);
        let mut out = PassResult::empty(kind);
        let started = Instant::now();
        for op in ops {
            if self.inputs.kind == Kind::PlanCold {
                self.engine_of(&op).plan_cache().clear();
            }
            let clock = Instant::now();
            // Each arm releases the result rows before the clock stops: an
            // op is "SQL text in, all rows collected", then let go.
            let rows = match kind {
                PassKind::Untraced => self.run_untraced(&op).map(|d| d.rows.num_rows() as u64),
                PassKind::Traced => self.run_traced(&op, &mut tracer),
                PassKind::ServerTraced => {
                    self.run_server_traced(&op, &mut tracer).map(|(rows, s)| {
                        out.served.push(s);
                        rows
                    })
                }
            };
            out.latencies_ms.push(clock.elapsed().as_secs_f64() * 1e3);
            out.queries.push(op.query);
            match rows {
                Ok(rows) if rows == expected_rows[op.query] => {}
                Ok(_) => out.wrong_rows += 1,
                Err(Failure::Rejected(_)) => out.rejected += 1,
                Err(Failure::Failed(_)) => out.failed += 1,
            }
        }
        let ended = Instant::now();
        out.spans = tracer.into_spans();
        (started, ended, out)
    }

    /// Runs the op list once, closed loop: each client sends its next op
    /// only after the previous one completed. `pass` is the pass's index in
    /// the run.
    pub fn run_pass(&self, kind: PassKind, pass: usize, expected_rows: &[u64]) -> PassResult {
        if let Some(log) = &self.chunk_log {
            log.set_recording(kind == PassKind::Traced);
        }
        let clients = self.inputs.clients;
        let ops = &self.inputs.ops;
        if clients == 1 {
            let (_, _, mut out) = self.run_client(kind, pass, ops.iter().copied(), expected_rows);
            out.wall_s = out.latencies_ms.iter().sum::<f64>() / 1e3;
            return out;
        }
        let shares: Vec<(Instant, Instant, PassResult)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    let share = ops.iter().copied().skip(client).step_by(clients);
                    let stream = pass * clients + client;
                    scope.spawn(move || self.run_client(kind, stream, share, expected_rows))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let first_start = shares.iter().map(|s| s.0).min().expect("a client");
        let last_end = shares.iter().map(|s| s.1).max().expect("a client");
        let mut out = PassResult::empty(kind);
        out.wall_s = (last_end - first_start).as_secs_f64();
        for (_, _, share) in shares {
            out.absorb(share);
        }
        out
    }

    /// Repeats `cycle` until `seconds` have elapsed (always at least once).
    pub fn measure(
        &self,
        seconds: f64,
        cycle: &[PassKind],
        expected_rows: &[u64],
    ) -> Vec<PassResult> {
        let started = Instant::now();
        let mut passes = Vec::new();
        loop {
            for &kind in cycle {
                passes.push(self.run_pass(kind, passes.len(), expected_rows));
            }
            if started.elapsed().as_secs_f64() >= seconds {
                return passes;
            }
        }
    }
}

/// The reference: answers from the most independent path the repo has —
/// `BaselineNoBitvectors` plans, scalar kernels, one thread, in-memory
/// tables — and, per distinct query, the logical work of the plan each
/// optimizer picks for exactly that query (cache cleared first, so a
/// template's earlier binds cannot lend it their plan).
#[derive(Debug)]
pub struct Reference {
    pub answers: Vec<Answer>,
    pub bqo_work: u64,
    pub baseline_work: u64,
}

pub fn reference(inputs: &Inputs) -> Result<Reference, String> {
    let engines: Vec<Engine> = inputs
        .databases
        .iter()
        .map(|catalog| {
            Engine::builder()
                .catalog(catalog.clone())
                .exec_config(ExecConfig::scalar_kernels())
                .build()
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut out = Reference {
        answers: Vec::new(),
        bqo_work: 0,
        baseline_work: 0,
    };
    for query in &inputs.queries {
        let engine = &engines[query.database];
        let run = |choice, collect: bool| {
            engine.plan_cache().clear();
            let stmt = match &query.params {
                Some(params) => engine.bind_sql(&query.sql, params, choice),
                None => engine.prepare_sql(&query.sql, choice),
            }
            .map_err(|e| e.to_string())?;
            let options = if collect {
                RunOptions::new().collecting_rows()
            } else {
                RunOptions::new()
            };
            engine
                .session()
                .execute(&stmt, options)
                .map_err(|e| e.to_string())
        };
        let rows = run(OptimizerChoice::BaselineNoBitvectors, true)?
            .rows
            .ok_or("no rows collected")?;
        out.answers.push(answer_of(&rows));
        out.bqo_work += run(CHOICE, false)?.result.metrics.logical_work();
        out.baseline_work += run(OptimizerChoice::Baseline, false)?
            .result
            .metrics
            .logical_work();
    }
    Ok(out)
}
