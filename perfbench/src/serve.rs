//! `serve-ami49`: the delta daemon in this process, on a Unix socket,
//! driven in a closed loop by one binary-framed client.
//!
//! The client opens a delta session on an annealed ami49 floorplan and
//! replays a seeded script of small moves: each move nudges one to three
//! segments and is a `Propose` followed by a `Commit` (one in three,
//! which persists a snapshot) or an `Undo`. Every 16th op is instead an
//! `Evaluate` batch of the committed state plus states evaluated at
//! earlier batches, which the shared score cache answers.
//!
//! The script is run [`REPEATS`] times, one after another, each time
//! against a fresh daemon, so every run sends the same requests to the
//! same daemon state and gets the same replies. An op's time is its
//! fastest run, which leaves out the host's slow phases.
//!
//! The state directories and sockets live under `.bench_state/` in the
//! working directory and are removed at the end of the run.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use irgrid::anneal::{Annealer, RunControl, Schedule};
use irgrid::congestion::{DeltaCongestion, DeltaCongestionSession, IrregularGridModel};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::{Point, Rect, Um};
use irgrid::netlist::mcnc::McncCircuit;
use irgrid::serve::frame::{
    parse_request_payload, parse_response_payload, read_frame, request_frame, response_frame,
};
use irgrid::serve::{
    serve, Chaos, Client, DegradePolicy, ErrorKind, FloorplanState, FrameCodec, KillSwitch, Limits,
    Request, RequestOp, Response, ResponsePayload, ServerHandle, ServerOptions, SessionConfig,
    SessionManager, SnapshotStore, Transport,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats::{Samples, Tally};
use crate::{Config, Outcome};

/// Timed ops per unit of `--seconds`, which sets the fixed op count.
const RATE: f64 = 62.0;
const WARM_OPS: usize = 48;
/// How many times the script is run, each time against a fresh daemon;
/// an op's time is its fastest run.
const REPEATS: usize = 8;
/// Every this-many-th op is an `Evaluate` batch.
const EVALUATE_EVERY: usize = 16;
/// States from earlier batches re-sent in each batch.
const BATCH_RECENT: usize = 3;
const SESSION: &str = "bench";
const STATE_ROOT: &str = ".bench_state";

/// The annealed ami49 floorplan as a protocol state, translated so the
/// chip's lower-left corner is the origin; with its grid pitch in µm.
fn ami49_state() -> (FloorplanState, i64) {
    let bench = McncCircuit::Ami49;
    let circuit = bench.circuit();
    let pitch = bench.paper_grid_pitch_um();
    let problem = FloorplanProblem::new(
        &circuit,
        Um(pitch),
        Weights::area_wire(),
        None::<IrregularGridModel>,
    );
    let run = Annealer::new(Schedule::quick()).run(&problem, 4);
    let eval = problem.evaluate(&run.best);
    let chip = eval.placement.chip();
    let (dx, dy) = (chip.ll().x.0, chip.ll().y.0);
    let extent = [chip.width().0, chip.height().0];
    let segments = eval
        .segments
        .iter()
        .map(|(a, b)| {
            [
                (a.x.0 - dx).clamp(0, extent[0]),
                (a.y.0 - dy).clamp(0, extent[1]),
                (b.x.0 - dx).clamp(0, extent[0]),
                (b.y.0 - dy).clamp(0, extent[1]),
            ]
        })
        .collect();
    (
        FloorplanState {
            chip: extent,
            segments,
        },
        pitch,
    )
}

/// A from-scratch delta rebase of `state`: what every served score
/// must equal bit for bit.
fn local_score(state: &FloorplanState, pitch: i64) -> f64 {
    let chip = Rect::from_origin_size(Point::ORIGIN, Um(state.chip[0]), Um(state.chip[1]));
    let segments: Vec<(Point, Point)> = state
        .segments
        .iter()
        .map(|&[x1, y1, x2, y2]| (Point::new(Um(x1), Um(y1)), Point::new(Um(x2), Um(y2))))
        .collect();
    IrregularGridModel::new(Um(pitch))
        .delta_session()
        .rebase(&chip, &segments)
}

/// One op of the script.
enum Op {
    Move { state: FloorplanState, commit: bool },
    Evaluate { states: Vec<FloorplanState> },
}

/// The seeded op script.
struct Script {
    rng: ChaCha8Rng,
    committed: FloorplanState,
    recent: VecDeque<FloorplanState>,
    pitch: i64,
}

impl Script {
    fn new(seed: u64, initial: &FloorplanState, pitch: i64) -> Script {
        Script {
            rng: ChaCha8Rng::seed_from_u64(seed),
            committed: initial.clone(),
            recent: VecDeque::new(),
            pitch,
        }
    }

    fn next(&mut self, index: usize) -> Op {
        if index % EVALUATE_EVERY == EVALUATE_EVERY - 1 {
            let mut states = vec![self.committed.clone()];
            states.extend(self.recent.iter().cloned());
            self.recent.push_front(self.committed.clone());
            self.recent.truncate(BATCH_RECENT);
            return Op::Evaluate { states };
        }
        let mut state = self.committed.clone();
        let [width, height] = state.chip;
        let reach = 2 * self.pitch;
        for _ in 0..self.rng.gen_range(1..=3usize) {
            let i = self.rng.gen_range(0..state.segments.len());
            let end = 2 * self.rng.gen_range(0..2usize);
            let segment = &mut state.segments[i];
            segment[end] = (segment[end] + self.rng.gen_range(-reach..=reach)).clamp(0, width);
            segment[end + 1] =
                (segment[end + 1] + self.rng.gen_range(-reach..=reach)).clamp(0, height);
        }
        let commit = self.rng.gen_range(0..3u32) == 0;
        if commit {
            self.committed = state.clone();
        }
        Op::Move { state, commit }
    }
}

fn request(id: String, op: RequestOp) -> Request {
    Request {
        id,
        session: SESSION.to_owned(),
        op,
    }
}

/// What one op's replies held.
#[derive(Debug)]
struct Driven {
    /// Every reply was a clean success with the expected payload, and a
    /// `Commit` echoed its `Propose` score.
    ok: bool,
    /// The `Propose` score, or the first `Evaluate` score.
    score: f64,
    commits: u64,
    evaluated: u64,
}

/// Sends op `index`'s requests through `send` (`None` is a transport
/// failure) and checks the replies.
fn drive(index: usize, op: &Op, send: &mut dyn FnMut(&Request) -> Option<Response>) -> Driven {
    let mut driven = Driven {
        ok: false,
        score: f64::NAN,
        commits: 0,
        evaluated: 0,
    };
    match op {
        Op::Evaluate { states } => {
            let req = request(
                format!("e{index}"),
                RequestOp::Evaluate {
                    states: states.clone(),
                },
            );
            if let Some(response) = send(&req) {
                if let ResponsePayload::Evaluated { results } = &response.payload {
                    driven.ok = clean(&response) && results.len() == states.len();
                    driven.score = results.first().map_or(f64::NAN, |r| r.score);
                    driven.evaluated = states.len() as u64;
                }
            }
        }
        Op::Move { state, commit } => {
            let req = request(
                format!("p{index}"),
                RequestOp::Propose {
                    state: state.clone(),
                },
            );
            let Some(response) = send(&req) else {
                return driven;
            };
            let ResponsePayload::Proposed { digest, score } = &response.payload else {
                return driven;
            };
            driven.score = *score;
            let proposed_ok = clean(&response) && score.is_finite();
            let second = if *commit {
                let digest = digest.clone();
                request(format!("c{index}"), RequestOp::Commit { digest })
            } else {
                request(format!("u{index}"), RequestOp::Undo)
            };
            let Some(reply) = send(&second) else {
                return driven;
            };
            let second_ok = match &reply.payload {
                ResponsePayload::Committed { score: echoed, .. } => {
                    driven.commits = 1;
                    echoed.to_bits() == score.to_bits()
                }
                ResponsePayload::Undone { .. } => !commit,
                _ => false,
            };
            driven.ok = proposed_ok && clean(&reply) && second_ok;
        }
    }
    driven
}

/// A daemon with its state directory.
struct Daemon {
    handle: ServerHandle,
    dir: PathBuf,
    socket: PathBuf,
}

impl Daemon {
    fn start(tag: &str) -> Daemon {
        let dir = Path::new(STATE_ROOT).join(format!("{tag}-{}", std::process::id()));
        // A relative socket path keeps clear of the socket-path length
        // limit however deep the working directory is.
        let socket = PathBuf::from(format!("{}.sock", dir.display()));
        let _ = std::fs::remove_file(&socket);
        let manager = Arc::new(manager_at(&dir));
        let handle = serve(
            Transport::Unix(socket.clone()),
            manager,
            ServerOptions::default(),
        )
        .expect("the daemon binds its socket");
        Daemon {
            handle,
            dir,
            socket,
        }
    }

    fn client(&self) -> Client {
        Client::with_codec(Transport::Unix(self.socket.clone()), FrameCodec::Binary)
    }

    fn stop(self) {
        self.handle.manager().request_shutdown();
        self.handle.join();
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_dir(STATE_ROOT);
    }
}

/// One delta-capable manager with one worker over a store at `dir`.
fn manager_at(dir: &Path) -> SessionManager {
    let store = SnapshotStore::open(dir, Chaos::off(), KillSwitch::new()).expect("state dir opens");
    SessionManager::new(store, Limits::default(), DegradePolicy::default(), 1)
}

fn session_config(pitch: i64) -> SessionConfig {
    SessionConfig {
        pitch_um: pitch,
        budget: 0,
        cache_capacity: 64,
    }
}

/// Whether a response is a clean success: ok, first-time, not degraded.
fn clean(response: &Response) -> bool {
    response.ok && !response.replayed && !response.degraded
}

/// Opens the delta session and commits the initial state.
fn open(
    send: &mut dyn FnMut(&Request) -> Option<Response>,
    initial: &FloorplanState,
    pitch: i64,
) -> bool {
    let config = session_config(pitch);
    let opened =
        send(&request("open".into(), RequestOp::OpenDelta { config })).is_some_and(|r| clean(&r));
    let Some(Response {
        payload: ResponsePayload::Proposed { digest, .. },
        ..
    }) = send(&request(
        "seed-p".into(),
        RequestOp::Propose {
            state: initial.clone(),
        },
    ))
    else {
        return false;
    };
    let committed =
        send(&request("seed-c".into(), RequestOp::Commit { digest })).is_some_and(|r| clean(&r));
    opened && committed
}

/// Per-request times by request kind.
#[derive(Debug, Default)]
struct ByKind {
    propose: Samples,
    commit: Samples,
    undo: Samples,
    evaluate: Samples,
}

impl ByKind {
    fn of(&mut self, op: &RequestOp) -> &mut Samples {
        match op {
            RequestOp::Propose { .. } => &mut self.propose,
            RequestOp::Commit { .. } => &mut self.commit,
            RequestOp::Undo => &mut self.undo,
            _ => &mut self.evaluate,
        }
    }

    fn sum_ms(&self) -> f64 {
        [&self.propose, &self.commit, &self.undo, &self.evaluate]
            .iter()
            .map(|s| s.sum_ms())
            .sum()
    }
}

struct Pass {
    /// Each timed op's time, in script order.
    times: Vec<Duration>,
    /// Whether each timed op's replies were clean and as expected.
    oks: Vec<bool>,
    /// Each timed op's score, which every run must repeat bit for bit.
    scores: Vec<f64>,
    /// Sampled scores that differed from a local rebase, and a failed
    /// `Stat`.
    failed: u64,
    rtts: ByKind,
    best: f64,
    commits: u64,
    evaluated: u64,
    cache_hits: u64,
}

/// Runs the script against the daemon, and (traced run) each op through
/// `shadow` right after it. Checks inline only what is free (status
/// flags, commit echoes); sampled scores are compared with a local rebase
/// after the clocks stop.
fn socket_pass(
    client: &mut Client,
    script: &mut Script,
    ops: usize,
    pitch: i64,
    mut shadow: Option<&mut Shadow>,
) -> Pass {
    let check_every = (ops / 32).max(1);
    let mut times = Vec::with_capacity(ops);
    let mut oks = Vec::with_capacity(ops);
    let mut scores = Vec::with_capacity(ops);
    let mut rtts = ByKind::default();
    let mut failed = 0u64;
    let mut checks: Vec<(FloorplanState, f64)> = Vec::new();
    let (mut best, mut commits, mut evaluated) = (f64::INFINITY, 0u64, 0u64);
    for i in 0..WARM_OPS + ops {
        let op = script.next(i);
        let timed = i >= WARM_OPS;
        let mut send = |req: &Request| {
            let sent = Instant::now();
            let response = client.call_once(req).ok();
            let rtt = sent.elapsed();
            if timed {
                rtts.of(&req.op).push(rtt);
            }
            response
        };
        let start = Instant::now();
        let driven = drive(i, &op, &mut send);
        let elapsed = start.elapsed();
        commits += driven.commits;
        evaluated += driven.evaluated;
        if let Op::Move { .. } = op {
            best = best.min(driven.score);
        }
        if timed {
            times.push(elapsed);
            oks.push(driven.ok);
            scores.push(driven.score);
            if i % check_every == 0 {
                let state = match &op {
                    Op::Move { state, .. } => state,
                    Op::Evaluate { states } => &states[0],
                };
                checks.push((state.clone(), driven.score));
            }
        }
        if let Some(shadow) = shadow.as_deref_mut() {
            shadow.step(i, &op);
        }
    }
    for (state, served) in &checks {
        if local_score(state, pitch).to_bits() != served.to_bits() {
            failed += 1;
        }
    }
    let cache_hits = match client.call_once(&request("stat".into(), RequestOp::Stat)) {
        Ok(Response {
            payload: ResponsePayload::Stats { stat },
            ..
        }) => stat.cache_hits,
        _ => {
            failed += 1;
            0
        }
    };
    Pass {
        times,
        oks,
        scores,
        failed,
        rtts,
        best,
        commits,
        evaluated,
        cache_hits,
    }
}

pub fn run(config: &Config) -> Outcome {
    let mut outcome = Outcome::new();
    let ops = config.ops(RATE);
    // The traced run sends the script once, each op also through the
    // in-process shadow.
    let runs = if config.trace {
        1
    } else if config.tiny {
        2
    } else {
        REPEATS
    };
    // Each run of the script starts with a set-up of its own (input,
    // daemon, session), so `setup_s`, their median, spans the run's host
    // phases like the ops do.
    let mut setups = Vec::with_capacity(runs);
    let mut opened = true;
    let mut shadow = None;
    let mut fs = String::new();
    let mut initial = None;
    let mut passes: Vec<Pass> = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        let (state, pitch) = ami49_state();
        let daemon = Daemon::start("serve");
        let mut client = daemon.client();
        opened &= open(&mut |r| client.call_once(r).ok(), &state, pitch);
        setups.push(start.elapsed().as_secs_f64());
        if passes.is_empty() {
            fs = crate::host::filesystem_of(&daemon.dir);
            shadow = config.trace.then(|| Shadow::open(&state, pitch));
        }
        let mut script = Script::new(config.seed, &state, pitch);
        let traced = if passes.is_empty() {
            shadow.as_mut()
        } else {
            None
        };
        passes.push(socket_pass(&mut client, &mut script, ops, pitch, traced));
        drop(client);
        daemon.stop();
        initial.get_or_insert(state);
    }
    let initial = initial.expect("the script ran at least once");

    // An op fails when any run's replies to it were wrong, or when a run
    // scored it differently from the first.
    let first = &passes[0];
    let mut tally = Tally::default();
    for i in 0..ops {
        let ok = passes.iter().all(|p| {
            p.oks.get(i) == Some(&true)
                && p.scores.get(i).map(|s| s.to_bits()) == Some(first.scores[i].to_bits())
        });
        tally.record(ok);
    }
    tally.failed += passes.iter().map(|p| p.failed).sum::<u64>() + u64::from(!opened);
    let mut samples = Samples::with_capacity(ops);
    let mut wall = Duration::ZERO;
    for i in 0..ops {
        let fastest = passes
            .iter()
            .filter_map(|p| p.times.get(i))
            .min()
            .copied()
            .unwrap_or_default();
        samples.push(fastest);
        wall += fastest;
    }
    outcome.tally = tally;
    outcome.end_to_end(crate::stats::median(&setups), &samples, wall, first.best);
    outcome.diag("state_dir_fs", crate::stats::json_string(&fs));
    outcome.diag("commits", first.commits.to_string());
    outcome.diag("cache_hits", first.cache_hits.to_string());

    if let Some(shadow) = shadow {
        per_layer(shadow, &initial, first, &mut outcome);
    }
    outcome
}

/// The traced run's in-process copy of the daemon: each op of the socket
/// pass, right after it, through `SessionManager::handle` (no socket)
/// with each request's codec work timed beside it, so that both see the
/// same host phase. Transport time is the socket round trip minus both.
struct Shadow {
    dir: PathBuf,
    manager: SessionManager,
    codec_time: Samples,
    handled: ByKind,
    request_bytes: usize,
    failed: bool,
}

impl Shadow {
    fn open(initial: &FloorplanState, pitch: i64) -> Shadow {
        let dir = Path::new(STATE_ROOT).join(format!("trace-{}", std::process::id()));
        let mut shadow = Shadow {
            manager: manager_at(&dir),
            dir,
            codec_time: Samples::default(),
            handled: ByKind::default(),
            request_bytes: 0,
            failed: false,
        };
        let opened = open(&mut |r| Some(shadow.handle(r, false)), initial, pitch);
        shadow.failed = !opened;
        shadow
    }

    fn handle(&mut self, req: &Request, timed: bool) -> Response {
        let codec = FrameCodec::Binary;
        let max = Limits::default().max_frame_bytes;
        let start = Instant::now();
        let frame = request_frame(codec, req);
        let decoded = read_frame(&mut frame.as_slice(), codec, max, &mut || true)
            .ok()
            .and_then(|payload| parse_request_payload(&payload).ok());
        let encode_decode = start.elapsed();
        let Some(decoded) = decoded else {
            return Response::error(&req.id, ErrorKind::MalformedFrame, "codec", false);
        };
        let start = Instant::now();
        let response = self.manager.handle(&decoded, &RunControl::unlimited());
        let handled = start.elapsed();
        let start = Instant::now();
        let frame_back = response_frame(codec, &response);
        let back = read_frame(&mut frame_back.as_slice(), codec, max, &mut || true)
            .ok()
            .and_then(|payload| parse_response_payload(&payload).ok());
        let codec_total = encode_decode + start.elapsed();
        if timed {
            self.codec_time.push(codec_total);
            self.request_bytes += frame.len();
            self.handled.of(&req.op).push(handled);
        }
        back.unwrap_or(response)
    }

    /// Sends op `index` of the script.
    fn step(&mut self, index: usize, op: &Op) {
        let timed = index >= WARM_OPS;
        let ok = drive(index, op, &mut |r| Some(self.handle(r, timed))).ok;
        self.failed |= !ok;
    }
}

/// The per-layer metrics of the traced run, then the store's write of the
/// session's real snapshot.
fn per_layer(shadow: Shadow, initial: &FloorplanState, pass: &Pass, outcome: &mut Outcome) {
    let Shadow {
        dir,
        manager,
        codec_time,
        handled: handled_by_kind,
        request_bytes,
        mut failed,
    } = shadow;
    // The store's write of the session's real snapshot payload.
    let store =
        SnapshotStore::open(&dir, Chaos::off(), KillSwitch::new()).expect("state dir opens");
    let payload = store.read(SESSION).ok().flatten().unwrap_or_default();
    failed |= payload.is_empty();
    let mut writes = Samples::default();
    for seq in 0..32 {
        let start = Instant::now();
        failed |= store.write("bench-write", &payload, seq).is_err();
        writes.push(start.elapsed());
    }
    drop(manager);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(STATE_ROOT);
    if failed {
        outcome.tally.failed += 1;
    }

    let requests = codec_time.len().max(1) as f64;
    let rtt_per_request = pass.rtts.sum_ms() / requests;
    let handle_per_request = handled_by_kind.sum_ms() / requests;
    let codec_ms = codec_time.mean_ms();
    let layers = &mut outcome.per_layer;
    layers.set("serve.codec_us", codec_ms * 1e3);
    layers.set("serve.handle_propose_ms", handled_by_kind.propose.mean_ms());
    layers.set("serve.handle_commit_ms", handled_by_kind.commit.mean_ms());
    layers.set("serve.handle_undo_ms", handled_by_kind.undo.mean_ms());
    layers.set(
        "serve.handle_evaluate_ms",
        handled_by_kind.evaluate.mean_ms(),
    );
    layers.set(
        "serve.transport_ms",
        rtt_per_request - handle_per_request - codec_ms,
    );
    layers.set("serve.propose_rtt_ms", pass.rtts.propose.mean_ms());
    layers.set("serve.commit_rtt_ms", pass.rtts.commit.mean_ms());
    layers.set("serve.undo_rtt_ms", pass.rtts.undo.mean_ms());
    layers.set("serve.evaluate_rtt_ms", pass.rtts.evaluate.mean_ms());
    layers.set("serve.store_write_ms", writes.median_ms());
    layers.set("serve.request_bytes", request_bytes as f64 / requests);
    layers.set("serve.snapshot_bytes", payload.len() as f64);
    layers.set("serve.persists", pass.commits as f64);
    layers.set(
        "serve.cache_hit_ratio",
        pass.cache_hits as f64 / pass.evaluated.max(1) as f64,
    );
    layers.set("core.segments", initial.segments.len() as f64);
    layers.set("trace.overhead_ratio", 1.0);
    layers.set(
        "trace.stage_sum_ratio",
        (handle_per_request + codec_ms) / rtt_per_request,
    );
    let within = handle_per_request + codec_ms <= rtt_per_request;
    outcome.diag("handle_plus_codec_within_rtt", within.to_string());
}
