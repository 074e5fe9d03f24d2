//! Clustering as a service: a long-lived serving runtime over a
//! [`FittedModel`].
//!
//! The fit is the expensive part — it uploads the points, materializes (or
//! factorizes) the kernel matrix and iterates to convergence. Everything that
//! state can answer afterwards is cheap by comparison: labeling a batch of
//! `q` out-of-sample queries is a `q × n` (exact/CSR) or `q × m` (Nyström)
//! cross-kernel product, and a warm-start refit reuses the resident kernel
//! matrix plus the stored labels as its initialization. This crate keeps that
//! state alive behind a bounded request queue, so the residency is charged
//! once at load time and every request pays only its own marginal cost.
//!
//! Architecture (std-only, no async runtime):
//!
//! * [`Server::start`] spawns a fixed pool of worker threads draining one
//!   bounded [`std::sync::mpsc::sync_channel`]. [`Server::submit`] uses
//!   `try_send`, so a full queue rejects the request immediately
//!   ([`SubmitError::Busy`]) instead of buffering without bound — the
//!   backpressure is explicit and counted in [`ServeStats::rejected`].
//! * Each request runs on a **fork** of the server's executor, so its modeled
//!   device-seconds are attributed to that request alone no matter how many
//!   workers interleave on the shared trace; the fork's history is absorbed
//!   back into the server executor afterwards. Per-request attribution is
//!   therefore bit-identical at any worker count.
//! * The model lives in an `RwLock<Arc<FittedModel>>`: assignments clone the
//!   `Arc` and proceed without blocking each other; a refit swaps the `Arc`
//!   atomically once the new model is ready. Refits themselves serialize
//!   through a gate mutex so two concurrent refits cannot race the swap.

use popcorn_baselines::SolverKind;
use popcorn_core::model::{AssignmentBatch, FittedModel, OwnedPoints, RefitRequest};
use popcorn_core::ClusteringResult;
use popcorn_gpusim::{Executor, RecoveryReport, SimExecutor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// How the server queues and drains requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Bounded request-queue depth; a full queue rejects new submissions
    /// ([`SubmitError::Busy`]).
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            workers: 1,
        }
    }
}

/// One request against the served model.
#[derive(Debug, Clone)]
pub enum ServeRequest {
    /// Label a batch of query points.
    Assign {
        /// The query rows, in either layout (must match the model's feature
        /// count).
        queries: OwnedPoints<f32>,
    },
    /// Refit the model — warm-start, cold, new config and/or appended
    /// mini-batch rows, per the request. On success the served model is
    /// swapped atomically; in-flight assignments keep the model they started
    /// with.
    Refit {
        /// What the refit should do.
        request: RefitRequest<f32>,
    },
    /// Snapshot the serving counters.
    Stats,
}

/// What the server answered.
#[derive(Debug, Clone)]
pub enum ServeResponse {
    /// Labels for an [`ServeRequest::Assign`].
    Assigned(AssignmentBatch),
    /// Summary of a completed [`ServeRequest::Refit`].
    Refitted(RefitSummary),
    /// Counters for a [`ServeRequest::Stats`].
    Stats(ServeStats),
    /// The request failed; the server keeps running.
    Error(String),
}

/// The parts of a refit's [`ClusteringResult`] worth shipping back over the
/// queue (the full result, trace included, stays with the swapped-in model's
/// provenance).
#[derive(Debug, Clone, PartialEq)]
pub struct RefitSummary {
    /// Training-set size after the refit (grows under mini-batch requests).
    pub n: usize,
    /// Iterations the refit ran.
    pub iterations: usize,
    /// Whether the refit converged.
    pub converged: bool,
    /// Final objective.
    pub objective: f64,
    /// Modeled device-seconds the refit charged.
    pub modeled_seconds: f64,
    /// Elastic-topology recovery accounting when the refit's executor lost
    /// devices and the refit resumed in place on the survivors — the serving
    /// path degrades gracefully instead of failing the request. `None` on a
    /// fault-free refit. Cumulative across refits on one server, like
    /// [`popcorn_core::ClusteringResult::recovery`].
    pub recovery: Option<RecoveryReport>,
}

impl RefitSummary {
    fn new(result: &ClusteringResult) -> Self {
        Self {
            n: result.labels.len(),
            iterations: result.iterations,
            converged: result.converged,
            objective: result.objective,
            modeled_seconds: result.modeled_timings.total(),
            recovery: result.recovery.clone(),
        }
    }
}

/// Serving counters, snapshotted by [`Server::stats`] or a
/// [`ServeRequest::Stats`] request.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServeStats {
    /// Assignment requests answered.
    pub assigned: usize,
    /// Query rows labeled across all assignment requests.
    pub queries_labeled: usize,
    /// Assignment requests answered by replaying the fit's own distance pass
    /// (the queries were bitwise the training set).
    pub training_replays: usize,
    /// Refit requests completed.
    pub refits: usize,
    /// Requests rejected at submission because the queue was full.
    pub rejected: usize,
    /// Requests that failed inside the worker (shape mismatches, worker
    /// panics caught at the request boundary, ...).
    pub errors: usize,
    /// Modeled device-seconds charged by answered requests.
    pub modeled_device_seconds: f64,
    /// Measured host seconds from enqueue to response, summed over requests.
    pub host_latency_seconds: f64,
    /// Worst single-request host latency observed.
    pub max_host_latency_seconds: f64,
}

impl ServeStats {
    /// Requests answered (assignments + refits; stats probes not counted).
    pub fn served(&self) -> usize {
        self.assigned + self.refits
    }

    /// Mean host latency per answered request.
    pub fn mean_host_latency_seconds(&self) -> f64 {
        if self.served() == 0 {
            return 0.0;
        }
        self.host_latency_seconds / self.served() as f64
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — back off and retry.
    Busy,
    /// The server has shut down.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy => write!(f, "request queue is full"),
            SubmitError::Closed => write!(f, "server is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A pending response: one-shot, consumed by [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    reply: Receiver<ServeResponse>,
}

impl Ticket {
    /// Block until the worker answers.
    pub fn wait(self) -> ServeResponse {
        self.reply
            .recv()
            .unwrap_or_else(|_| ServeResponse::Error("server dropped the request".to_string()))
    }
}

struct Envelope {
    request: ServeRequest,
    reply: Sender<ServeResponse>,
    enqueued: Instant,
}

struct Shared {
    model: RwLock<Arc<FittedModel<f32>>>,
    stats: Mutex<ServeStats>,
    executor: Arc<dyn Executor>,
    /// Refits serialize through this gate: read current model, refit, swap.
    refit_gate: Mutex<()>,
    solver: SolverKind,
}

/// The serving runtime: owns the workers and the request queue. Dropping the
/// server (or calling [`Server::shutdown`]) closes the queue and joins the
/// workers after they drain what was already accepted.
pub struct Server {
    sender: Option<SyncSender<Envelope>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Server {
    /// Start serving `model`, executing refits with `solver`, on a fresh
    /// executor modeling the solver's default device.
    pub fn start(model: FittedModel<f32>, solver: SolverKind, options: ServeOptions) -> Self {
        let executor: Arc<dyn Executor> = Arc::new(SimExecutor::new(
            solver.default_device(),
            std::mem::size_of::<f32>(),
        ));
        Self::start_with_executor(model, solver, executor, options)
    }

    /// [`Server::start`] on a caller-provided executor (shared accounting,
    /// memory-capped devices, ...).
    pub fn start_with_executor(
        model: FittedModel<f32>,
        solver: SolverKind,
        executor: Arc<dyn Executor>,
        options: ServeOptions,
    ) -> Self {
        let workers = options.workers.max(1);
        let (sender, receiver) = sync_channel(options.queue_capacity.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let shared = Arc::new(Shared {
            model: RwLock::new(Arc::new(model)),
            stats: Mutex::new(ServeStats::default()),
            executor,
            refit_gate: Mutex::new(()),
            solver,
        });
        let workers = (0..workers)
            .map(|worker| {
                let shared = shared.clone();
                let receiver = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("popcorn-serve-{worker}"))
                    .spawn(move || worker_loop(&shared, &receiver))
                    .expect("spawn serve worker")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
            shared,
        }
    }

    /// Enqueue a request without blocking. A full queue answers
    /// [`SubmitError::Busy`] immediately — that rejection is the server's
    /// backpressure, counted in [`ServeStats::rejected`].
    pub fn submit(&self, request: ServeRequest) -> Result<Ticket, SubmitError> {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        let envelope = Envelope {
            request,
            reply: reply_tx,
            enqueued: Instant::now(),
        };
        let sender = self.sender.as_ref().ok_or(SubmitError::Closed)?;
        match sender.try_send(envelope) {
            Ok(()) => Ok(Ticket { reply: reply_rx }),
            Err(TrySendError::Full(_)) => {
                self.shared
                    .stats
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .rejected += 1;
                Err(SubmitError::Busy)
            }
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::Closed),
        }
    }

    /// Submit-and-wait convenience for sequential callers.
    pub fn request(&self, request: ServeRequest) -> Result<ServeResponse, SubmitError> {
        Ok(self.submit(request)?.wait())
    }

    /// The currently served model (refits swap it; clones are cheap).
    pub fn model(&self) -> Arc<FittedModel<f32>> {
        self.shared
            .model
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Snapshot the serving counters without going through the queue.
    pub fn stats(&self) -> ServeStats {
        *self.shared.stats.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The server's executor (all request forks are absorbed into it).
    pub fn executor(&self) -> &Arc<dyn Executor> {
        &self.shared.executor
    }

    /// Close the queue, drain accepted requests, join the workers and return
    /// the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.close();
        self.stats()
    }

    fn close(&mut self) {
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close();
    }
}

fn worker_loop(shared: &Shared, receiver: &Mutex<Receiver<Envelope>>) {
    loop {
        // Hold the receiver lock only while waiting: the holder blocks in
        // `recv`, the other workers block on the mutex, and whoever gets a
        // message releases the lock before touching the model.
        let envelope = match receiver.lock().unwrap_or_else(|p| p.into_inner()).recv() {
            Ok(envelope) => envelope,
            Err(_) => break,
        };
        let Envelope {
            request,
            reply,
            enqueued,
        } = envelope;
        // A panicking request is contained at the request boundary: it
        // answers a counted error instead of killing the worker, and the
        // poison-tolerant lock accesses below keep the model served. (Panics
        // under the model's *write* lock are the one case std poisons; the
        // swap itself is a plain pointer assignment and cannot panic.)
        let response =
            catch_unwind(AssertUnwindSafe(|| handle(shared, request))).unwrap_or_else(|payload| {
                ServeResponse::Error(format!("worker panicked: {}", panic_message(&*payload)))
            });
        let latency = enqueued.elapsed().as_secs_f64();
        {
            let mut stats = shared.stats.lock().unwrap_or_else(|p| p.into_inner());
            match &response {
                ServeResponse::Assigned(batch) => {
                    stats.assigned += 1;
                    stats.queries_labeled += batch.labels.len();
                    stats.training_replays += batch.replayed_training as usize;
                    stats.modeled_device_seconds += batch.modeled_seconds;
                }
                ServeResponse::Refitted(summary) => {
                    stats.refits += 1;
                    stats.modeled_device_seconds += summary.modeled_seconds;
                }
                ServeResponse::Stats(_) => {}
                ServeResponse::Error(_) => stats.errors += 1,
            }
            if !matches!(response, ServeResponse::Stats(_)) {
                stats.host_latency_seconds += latency;
                stats.max_host_latency_seconds = stats.max_host_latency_seconds.max(latency);
            }
        }
        let _ = reply.send(response);
    }
}

/// Best-effort text of a caught panic payload (`&str` / `String` payloads;
/// anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

fn handle(shared: &Shared, request: ServeRequest) -> ServeResponse {
    match request {
        ServeRequest::Assign { queries } => {
            let model = shared
                .model
                .read()
                .unwrap_or_else(|p| p.into_inner())
                .clone();
            // A fork gives this request its own trace: its modeled seconds
            // are exact regardless of what other workers charge concurrently.
            let fork = shared.executor.fork();
            let outcome = model.assign(queries.as_input(), &*fork);
            shared.executor.absorb(&fork.trace());
            match outcome {
                Ok(batch) => ServeResponse::Assigned(batch),
                Err(e) => ServeResponse::Error(e.to_string()),
            }
        }
        ServeRequest::Refit { request } => {
            let _gate = shared.refit_gate.lock().unwrap_or_else(|p| p.into_inner());
            let model = shared
                .model
                .read()
                .unwrap_or_else(|p| p.into_inner())
                .clone();
            let fork: Arc<dyn Executor> = Arc::from(shared.executor.fork());
            let solver = shared
                .solver
                .build_with_executor::<f32>(model.config().clone(), fork.clone());
            let outcome = solver.refit(&model, &request);
            shared.executor.absorb(&fork.trace());
            shared.executor.merge_peak(fork.peak_resident_bytes());
            match outcome {
                Ok((result, refitted)) => {
                    *shared.model.write().unwrap_or_else(|p| p.into_inner()) = Arc::new(refitted);
                    ServeResponse::Refitted(RefitSummary::new(&result))
                }
                Err(e) => ServeResponse::Error(e.to_string()),
            }
        }
        ServeRequest::Stats => {
            let stats = *shared.stats.lock().unwrap_or_else(|p| p.into_inner());
            ServeResponse::Stats(stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_core::KernelKmeansConfig;
    use popcorn_data::synthetic::uniform_dataset;

    fn fitted_model() -> (FittedModel<f32>, Vec<usize>) {
        let data = uniform_dataset::<f32>(80, 5, 11);
        let config = KernelKmeansConfig::paper_defaults(3)
            .with_convergence_check(true, 1e-9)
            .with_max_iter(60);
        let solver = SolverKind::Popcorn.build::<f32>(config);
        let (result, model) = solver
            .fit_model(popcorn_core::FitInput::Dense(data.points()))
            .unwrap();
        assert!(result.converged, "test model must be converged");
        (model, result.labels)
    }

    #[test]
    fn assign_refit_and_stats_round_trip() {
        let (model, fit_labels) = fitted_model();
        let training = model.points().clone();
        let server = Server::start(model, SolverKind::Popcorn, ServeOptions::default());

        // Training-set queries replay the fit labels bit for bit.
        let response = server
            .request(ServeRequest::Assign { queries: training })
            .unwrap();
        let ServeResponse::Assigned(batch) = response else {
            panic!("expected an assignment, got {response:?}");
        };
        assert!(batch.replayed_training);
        assert_eq!(batch.labels, fit_labels);
        assert!(batch.modeled_seconds > 0.0);

        // Out-of-sample queries get labels in range.
        let queries = OwnedPoints::Dense(uniform_dataset::<f32>(7, 5, 99).points().clone());
        let response = server.request(ServeRequest::Assign { queries }).unwrap();
        let ServeResponse::Assigned(batch) = response else {
            panic!("expected an assignment, got {response:?}");
        };
        assert!(!batch.replayed_training);
        assert_eq!(batch.labels.len(), 7);
        assert!(batch.labels.iter().all(|&label| label < 3));

        // A warm refit completes and swaps the model.
        let response = server
            .request(ServeRequest::Refit {
                request: RefitRequest::warm(),
            })
            .unwrap();
        let ServeResponse::Refitted(summary) = response else {
            panic!("expected a refit summary, got {response:?}");
        };
        assert_eq!(summary.n, 80);
        assert!(summary.modeled_seconds > 0.0);

        let response = server.request(ServeRequest::Stats).unwrap();
        let ServeResponse::Stats(stats) = response else {
            panic!("expected stats, got {response:?}");
        };
        assert_eq!(stats.assigned, 2);
        assert_eq!(stats.refits, 1);
        assert_eq!(stats.queries_labeled, 87);
        assert_eq!(stats.training_replays, 1);
        assert!(stats.modeled_device_seconds > 0.0);
        assert!(stats.host_latency_seconds > 0.0);
        let final_stats = server.shutdown();
        assert_eq!(final_stats.served(), 3);
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        let (model, _) = fitted_model();
        let training = model.points().clone();
        // One worker, capacity 1: flood the queue until try_send fails.
        let server = Server::start(
            model,
            SolverKind::Popcorn,
            ServeOptions {
                queue_capacity: 1,
                workers: 1,
            },
        );
        let mut tickets = Vec::new();
        let mut rejected = 0usize;
        for _ in 0..200 {
            match server.submit(ServeRequest::Assign {
                queries: training.clone(),
            }) {
                Ok(ticket) => tickets.push(ticket),
                Err(SubmitError::Busy) => rejected += 1,
                Err(SubmitError::Closed) => panic!("server closed early"),
            }
        }
        for ticket in tickets {
            assert!(matches!(ticket.wait(), ServeResponse::Assigned(_)));
        }
        let stats = server.shutdown();
        assert_eq!(stats.rejected, rejected);
        assert_eq!(stats.assigned + stats.rejected, 200);
    }

    #[test]
    fn bad_queries_answer_an_error_and_the_server_survives() {
        let (model, _) = fitted_model();
        let training = model.points().clone();
        let server = Server::start(model, SolverKind::Popcorn, ServeOptions::default());
        let wrong_width = OwnedPoints::Dense(uniform_dataset::<f32>(4, 9, 1).points().clone());
        let response = server
            .request(ServeRequest::Assign {
                queries: wrong_width,
            })
            .unwrap();
        assert!(matches!(response, ServeResponse::Error(_)), "{response:?}");
        // The worker is still alive and serving.
        let response = server
            .request(ServeRequest::Assign { queries: training })
            .unwrap();
        assert!(matches!(response, ServeResponse::Assigned(_)));
        let stats = server.shutdown();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.assigned, 1);
    }

    /// Delegates to a [`SimExecutor`] but panics on the first `fork` — i.e.
    /// in the middle of handling a request, after it was dequeued.
    #[derive(Debug)]
    struct PanickingExecutor {
        inner: SimExecutor,
        panics_left: std::sync::atomic::AtomicUsize,
    }

    impl Executor for PanickingExecutor {
        fn record(
            &self,
            name: String,
            phase: popcorn_gpusim::Phase,
            class: popcorn_gpusim::OpClass,
            cost: popcorn_gpusim::OpCost,
            host_seconds: f64,
        ) {
            self.inner.record(name, phase, class, cost, host_seconds)
        }
        fn device(&self) -> &popcorn_gpusim::DeviceSpec {
            self.inner.device()
        }
        fn cost_model(&self) -> &popcorn_gpusim::CostModel {
            self.inner.cost_model()
        }
        fn trace(&self) -> popcorn_gpusim::OpTrace {
            self.inner.trace()
        }
        fn total_modeled_seconds(&self) -> f64 {
            self.inner.total_modeled_seconds()
        }
        fn absorb(&self, trace: &popcorn_gpusim::OpTrace) {
            self.inner.absorb(trace)
        }
        fn fork(&self) -> Box<dyn Executor> {
            use std::sync::atomic::Ordering;
            if self
                .panics_left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                    left.checked_sub(1)
                })
                .is_ok()
            {
                panic!("injected fork failure");
            }
            Executor::fork(&self.inner)
        }
        fn track_alloc(&self, bytes: u64) {
            self.inner.track_alloc(bytes)
        }
        fn track_free(&self, bytes: u64) {
            self.inner.track_free(bytes)
        }
        fn resident_bytes(&self) -> u64 {
            self.inner.resident_bytes()
        }
        fn peak_resident_bytes(&self) -> u64 {
            self.inner.peak_resident_bytes()
        }
        fn merge_peak(&self, peak: u64) {
            self.inner.merge_peak(peak)
        }
    }

    #[test]
    fn a_panicking_request_answers_a_counted_error_and_serving_continues() {
        let (model, fit_labels) = fitted_model();
        let training = model.points().clone();
        let executor: Arc<dyn Executor> = Arc::new(PanickingExecutor {
            inner: SimExecutor::new(SolverKind::Popcorn.default_device(), 4),
            panics_left: std::sync::atomic::AtomicUsize::new(1),
        });
        let server = Server::start_with_executor(
            model,
            SolverKind::Popcorn,
            executor,
            ServeOptions::default(),
        );
        // The injected panic is contained: the request answers an error.
        let response = server
            .request(ServeRequest::Assign {
                queries: training.clone(),
            })
            .unwrap();
        let ServeResponse::Error(message) = response else {
            panic!("expected the panic to answer an error, got {response:?}");
        };
        assert!(
            message.contains("injected fork failure"),
            "the panic payload must be carried: {message}"
        );
        // The worker survived and the model is still served.
        let response = server
            .request(ServeRequest::Assign { queries: training })
            .unwrap();
        let ServeResponse::Assigned(batch) = response else {
            panic!("expected serving to continue, got {response:?}");
        };
        assert_eq!(batch.labels, fit_labels);
        let stats = server.shutdown();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.assigned, 1);
    }

    #[test]
    fn refit_losing_a_device_degrades_gracefully() {
        use popcorn_gpusim::{DeviceSpec, FaultPlan, LinkSpec, ShardedExecutor};
        let (model, _) = fitted_model();
        let base = ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), 3, LinkSpec::nvlink(), 4);
        // Device 2 dies at the refit's first kernel-matrix pass (a warm
        // refit of a converged model may finish in a single pass).
        let faulty = base.with_fault_plan(FaultPlan::new().lose(2, 0));
        let server = Server::start_with_executor(
            model,
            SolverKind::Popcorn,
            Arc::new(faulty),
            ServeOptions::default(),
        );
        // A mini-batch refit rebuilds the kernel source (the resident-replay
        // path never re-shards), so the loss hits the sharded stream.
        let extra = OwnedPoints::Dense(uniform_dataset::<f32>(8, 5, 123).points().clone());
        let response = server
            .request(ServeRequest::Refit {
                request: RefitRequest::warm().with_new_points(extra),
            })
            .unwrap();
        let ServeResponse::Refitted(summary) = response else {
            panic!("expected the refit to survive the device loss, got {response:?}");
        };
        assert_eq!(summary.n, 88);
        let recovery = summary
            .recovery
            .expect("the summary must carry the recovery accounting");
        assert_eq!(recovery.devices_lost, 1);
        assert!(recovery.rows_migrated > 0);
        let stats = server.shutdown();
        assert_eq!(stats.refits, 1);
        assert_eq!(stats.errors, 0);
    }
}
