//! The three workloads and the closed-loop driver that runs them.
//!
//! One client thread issues each operation only after the previous one
//! completed. A run is: set up the kernel several times (build, load
//! through the `Session` API, checkpoint, warm up) and keep the last; run
//! whole rounds of the workload's mix until the measured time is up;
//! then, several times, checkpoint, write a fixed log tail of edits,
//! crash and restart with `Prima::open_device`, and check the restarted
//! kernel against the model.

use crate::device::{DeviceSnapshot, TimedDevice};
use crate::model::{check_molecule, Attrs, BoxShape, Model, Solid, EDGES, FACES};
use crate::rng::Rng;
use crate::stats::{median, p99, quantile};
use crate::trace::LayerTrace;
use crate::Metric;
use prima::obs::Probe;
use prima::{MetricsSnapshot, Prepared, Prima, QueryOptions, Session, Value};
use prima_mad::ddl::FIG_2_3_DDL;
use prima_storage::wal::Wal;
use prima_storage::{BlockDevice, SimDisk};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHECKOUT: &str = "SELECT ALL FROM brep-face-edge-point WHERE brep_no = ?";

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadHot,
    ReadCold,
    EditDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ReadHot, Workload::ReadCold, Workload::EditDurable];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read_hot",
            Workload::ReadCold => "read_cold",
            Workload::EditDurable => "edit_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Edit transactions among the `ROUND_OPS` operations of a round.
    fn edits_per_round(self) -> usize {
        match self {
            Workload::ReadHot | Workload::ReadCold => ROUND_OPS / 20,
            Workload::EditDurable => ROUND_OPS * 4 / 5,
        }
    }
}

/// Operations per round: 5 % or 80 % of them are edits, in a seeded order.
const ROUND_OPS: usize = 20;
/// Share of read_cold keys drawn from the hot set, in percent.
const HOT_SHARE_PCT: usize = 90;

/// Database and buffer sizes and the run's fixed counts.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Generated solids, each with one box: 28 atoms.
    pub solids: usize,
    /// Buffer that holds the whole database.
    pub warm_buffer: usize,
    /// Buffer of about an eighth of the stored bytes (read_cold).
    pub cold_buffer: usize,
    /// Solids per load transaction; a checkpoint follows each.
    pub load_batch: usize,
    /// Edits between two checkpoints the benchmark issues.
    pub checkpoint_every: usize,
    /// Edits written after the last checkpoint before each crash.
    pub log_tail_edits: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Crash-restart cycles per run; `restart_s` is their median.
    pub restarts: usize,
}

impl Sizing {
    pub const STANDARD: Sizing = Sizing {
        solids: 500,
        warm_buffer: 32 << 20,
        cold_buffer: 288 << 10,
        load_batch: 25,
        checkpoint_every: 100,
        log_tail_edits: 40,
        setups: 3,
        restarts: 9,
    };

    /// A few solids: the self-tests run every workload end to end at this size.
    pub const TINY: Sizing = Sizing {
        solids: 40,
        warm_buffer: 4 << 20,
        cold_buffer: 24 << 10,
        load_batch: 16,
        checkpoint_every: 10,
        log_tail_edits: 4,
        setups: 1,
        restarts: 1,
    };

    fn buffer(&self, w: Workload) -> usize {
        match w {
            Workload::ReadCold => self.cold_buffer,
            Workload::ReadHot | Workload::EditDurable => self.warm_buffer,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizing: Sizing,
}

#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every mismatch and error seen; a run is correct only when empty.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// A kernel over its surviving medium.
struct Kernel {
    db: Prima,
    device: Arc<dyn BlockDevice>,
    timed: Option<Arc<TimedDevice>>,
}

impl Kernel {
    fn build(buffer: usize, traced: bool) -> Res<Kernel> {
        let sim: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
        let (device, timed) = if traced {
            let t = Arc::new(TimedDevice::new(sim));
            (Arc::clone(&t) as Arc<dyn BlockDevice>, Some(t))
        } else {
            (sim, None)
        };
        let db = Prima::builder()
            .buffer_bytes(buffer)
            .device(Arc::clone(&device))
            .durable()
            .build_with_ddl(FIG_2_3_DDL)
            .map_err(err)?;
        Ok(Kernel { db, device, timed })
    }

    fn dev_snapshot(&self) -> DeviceSnapshot {
        self.timed
            .as_ref()
            .map(|t| t.snapshot())
            .unwrap_or_default()
    }

    fn set_timing(&self, on: bool) {
        if let Some(t) = &self.timed {
            t.set_timing(on);
        }
    }

    /// Bytes of allocated segment pages per live atom.
    fn stored_bytes_per_atom(&self) -> Res<f64> {
        let (_, segments) = self.db.storage().segments_snapshot();
        let bytes: u64 = segments
            .iter()
            .map(|s| (u64::from(s.next_page) - s.free.len() as u64) * s.page_size.bytes() as u64)
            .sum();
        let atoms: u64 = atom_counts(&self.db)?.iter().map(|(_, n)| n).sum();
        Ok(bytes as f64 / atoms.max(1) as f64)
    }
}

fn atom_counts(db: &Prima) -> Res<Vec<(String, u64)>> {
    db.schema()
        .atom_types()
        .iter()
        .map(|t| Ok((t.name.clone(), db.access().atom_count(t.id).map_err(err)?)))
        .collect()
}

/// The outcome of checking a whole database against the model.
#[derive(Debug, Default)]
pub struct DbCheck {
    pub checkouts: u64,
    /// One entry per checkout that failed or did not match the model.
    pub failures: Vec<String>,
    /// Atom types whose count differs from the generated one.
    pub count_mismatches: Vec<String>,
}

/// Checks out every brep and compares it with the model, then compares
/// the atom count of every type with the generated one.
pub fn check_database(db: &Prima, model: &Model) -> Res<DbCheck> {
    let attrs = Attrs::resolve(db.schema())?;
    let s = db.session();
    let mut stmt = s.prepare(CHECKOUT).map_err(err)?;
    let mut check = DbCheck::default();
    for key in 1..=model.solids.len() as i64 {
        check.checkouts += 1;
        let out = stmt
            .bind(&[Value::Int(key)])
            .and_then(|st| st.query(&QueryOptions::default()))
            .map_err(err)
            .and_then(|r| check_molecule(&r.set, key, model.solid(key), &attrs));
        if let Err(e) = out {
            check.failures.push(format!("checkout of brep {key}: {e}"));
        }
    }
    let counts = atom_counts(db)?;
    for (ty, want) in model.expected_counts() {
        let got = counts.iter().find(|(t, _)| t == ty).map(|(_, n)| *n);
        if got != Some(want) {
            check
                .count_mismatches
                .push(format!("{ty}: {got:?} atoms, generated {want}"));
        }
    }
    Ok(check)
}

/// Loads one box per solid through the session API and returns the model.
pub fn load(db: &Prima, sizing: &Sizing, rng: &mut Rng) -> Res<Model> {
    let s = db.session();
    let mut model = Model::default();
    for n in 1..=sizing.solids {
        let no = n as i64;
        let shape = BoxShape::random(rng);
        let ins = |ty: &str, attrs: &[(&str, Value)]| s.insert_atom_named(ty, attrs).map_err(err);
        let solid = ins(
            "solid",
            &[
                ("solid_no", Value::Int(no)),
                ("description", Value::Str(format!("base solid {no}"))),
            ],
        )?;
        let brep = ins(
            "brep",
            &[
                ("brep_no", Value::Int(no)),
                ("hull", shape.hull()),
                ("solid", Value::Ref(Some(solid))),
            ],
        )?;
        let mut points = [brep; 8];
        for (i, p) in points.iter_mut().enumerate() {
            *p = ins(
                "point",
                &[
                    ("placement", shape.placement(i)),
                    ("brep", Value::Ref(Some(brep))),
                ],
            )?;
        }
        let mut edges = [brep; 12];
        for (e, id) in edges.iter_mut().enumerate() {
            let (a, b) = EDGES[e];
            *id = ins(
                "edge",
                &[
                    ("length", Value::Real(shape.edge_length(e))),
                    ("boundary", Value::ref_set(vec![points[a], points[b]])),
                    ("brep", Value::Ref(Some(brep))),
                ],
            )?;
        }
        for (f, (border, corners)) in FACES.iter().enumerate() {
            ins(
                "face",
                &[
                    ("square_dim", Value::Real(shape.face_area(f))),
                    (
                        "border",
                        Value::ref_set(border.iter().map(|&e| edges[e]).collect()),
                    ),
                    (
                        "crosspoint",
                        Value::ref_set(corners.iter().map(|&p| points[p]).collect()),
                    ),
                    ("brep", Value::Ref(Some(brep))),
                ],
            )?;
        }
        model.solids.push(Solid {
            brep,
            points,
            shape,
        });
        if n.is_multiple_of(sizing.load_batch) || n == sizing.solids {
            s.commit().map_err(err)?;
            db.checkpoint().map_err(err)?;
        }
    }
    Ok(model)
}

/// Which brep each operation touches.
enum Keys {
    Uniform(usize),
    /// `HOT_SHARE_PCT` % of draws from `hot`, the rest uniform.
    Skewed {
        hot: Vec<i64>,
        all: usize,
    },
}

impl Keys {
    fn new(w: Workload, solids: usize, rng: &mut Rng) -> Keys {
        match w {
            Workload::ReadCold => {
                let mut keys: Vec<i64> = (1..=solids as i64).collect();
                rng.shuffle(&mut keys);
                keys.truncate(solids.div_ceil(4));
                Keys::Skewed {
                    hot: keys,
                    all: solids,
                }
            }
            Workload::ReadHot | Workload::EditDurable => Keys::Uniform(solids),
        }
    }

    fn draw(&self, rng: &mut Rng) -> i64 {
        match self {
            Keys::Uniform(n) => 1 + rng.below(*n) as i64,
            Keys::Skewed { hot, all } => {
                if rng.below(100) < HOT_SHARE_PCT {
                    hot[rng.below(hot.len())]
                } else {
                    1 + rng.below(*all) as i64
                }
            }
        }
    }
}

/// State of one run's driver.
struct Driver {
    cfg: Config,
    attrs: Attrs,
    model: Model,
    rng: Rng,
    keys: Keys,
    report: Report,
    read_us: Vec<f64>,
    edit_us: Vec<f64>,
    /// Time inside kernel calls over the measured phase (checkpoints included).
    kernel_ns: u64,
    measured_ops: u64,
    measured_edits: u64,
    /// Device bytes written in the measured phase per committed edit.
    write_bytes_per_edit: f64,
    edits_since_checkpoint: usize,
    trace: LayerTrace,
    /// Whether the current round is traced.
    traced: bool,
}

/// The outcome of one operation, with its latency when it succeeded.
type OpResult = Res<Duration>;

impl Driver {
    fn profile_root(session: &Session) -> Option<prima::Span> {
        session.last_profile().map(|p| p.root)
    }

    fn read(&mut self, k: &Kernel, s: &Session, stmt: &mut Prepared<'_>, key: i64) -> OpResult {
        let before = self.traced.then(|| (k.db.metrics(), k.dev_snapshot()));
        let started = Instant::now();
        stmt.bind(&[Value::Int(key)]).map_err(err)?;
        let r = stmt.query(&QueryOptions::default()).map_err(err)?;
        let took = started.elapsed();
        if let Some((m, d)) = before {
            self.trace
                .read_counts
                .add(&k.db.metrics(), &m, &k.dev_snapshot(), &d);
            self.trace.reads += 1;
            self.trace.read_ns += took.as_nanos() as u64;
            if let Some(root) = Self::profile_root(s) {
                self.trace.spans.add(&root);
            }
            let mut distinct = r.set.molecules[0].atom_ids();
            distinct.sort_unstable();
            distinct.dedup();
            let t = Instant::now();
            let atoms =
                k.db.access()
                    .read_atoms_batch(&distinct, None)
                    .map_err(err)?;
            self.trace.decode_ns += t.elapsed().as_nanos() as u64;
            self.trace.decode_atoms += atoms.len() as u64;
        }
        check_molecule(&r.set, key, self.model.solid(key), &self.attrs)?;
        Ok(took)
    }

    /// One edit transaction: locked checkout, 9 modifies, commit. The
    /// oracle's check of the checkout is not part of the latency.
    fn edit(&mut self, k: &Kernel, s: &Session, stmt: &mut Prepared<'_>, key: i64) -> OpResult {
        let solid = self.model.solid(key).clone();
        let shape = BoxShape::random(&mut self.rng);
        let points: Vec<[(&str, Value); 1]> = (0..8)
            .map(|i| [("placement", shape.placement(i))])
            .collect();
        let hull = [("hull", shape.hull())];
        let before = self.traced.then(|| (k.db.metrics(), k.dev_snapshot()));

        let mut profiles = Vec::new();
        let started = Instant::now();
        s.begin().map_err(err)?;
        let result = self.edit_body(s, stmt, key, &solid, &points, &hull, &mut profiles);
        let checked_ns = match result {
            Ok(ns) => ns,
            Err(e) => {
                let _ = s.rollback();
                return Err(e);
            }
        };
        let t = Instant::now();
        s.commit().map_err(err)?;
        let commit_ns = t.elapsed().as_nanos() as u64;
        let took = started
            .elapsed()
            .saturating_sub(Duration::from_nanos(checked_ns));
        self.model.acknowledge(key, shape);
        if let Some((m, d)) = before {
            self.trace
                .edit_counts
                .add(&k.db.metrics(), &m, &k.dev_snapshot(), &d);
            self.trace.edits += 1;
            self.trace.commit_ns += commit_ns;
            profiles.extend(Self::profile_root(s));
            for root in &profiles {
                self.trace.spans.add(root);
            }
        }
        Ok(took)
    }

    /// Checkout and modifies of an edit; returns the oracle's check time.
    /// In traced rounds the statements' span trees go to `profiles`.
    #[allow(clippy::too_many_arguments)]
    fn edit_body(
        &mut self,
        s: &Session,
        stmt: &mut Prepared<'_>,
        key: i64,
        solid: &Solid,
        points: &[[(&str, Value); 1]],
        hull: &[(&str, Value); 1],
        profiles: &mut Vec<prima::Span>,
    ) -> Res<u64> {
        let t = Instant::now();
        stmt.bind(&[Value::Int(key)]).map_err(err)?;
        let r = stmt.query(&QueryOptions::default()).map_err(err)?;
        let checkout_ns = t.elapsed().as_nanos() as u64;
        if self.traced {
            self.trace.checkout_locked_ns += checkout_ns;
            profiles.extend(Self::profile_root(s));
        }
        let t = Instant::now();
        check_molecule(&r.set, key, solid, &self.attrs)?;
        let checked_ns = t.elapsed().as_nanos() as u64;
        for (id, attrs) in solid
            .points
            .iter()
            .zip(points)
            .map(|(id, a)| (*id, &a[..]))
            .chain([(solid.brep, &hull[..])])
        {
            let probe = self.traced.then(Probe::start);
            let t = Instant::now();
            let out = s.modify_atom_named(id, attrs);
            let took = t.elapsed();
            if let Some(p) = probe {
                self.trace.modifies += 1;
                self.trace.modify_ns += took.as_nanos() as u64;
                profiles.push(p.finish(took));
            }
            out.map_err(err)?;
        }
        Ok(checked_ns)
    }

    fn checkpoint(&mut self, k: &Kernel) -> Res<Duration> {
        let writes = || k.device.stats().snapshot().block_writes;
        let w0 = writes();
        let t = Instant::now();
        k.db.checkpoint().map_err(err)?;
        let took = t.elapsed();
        self.trace.checkpoint_ms.push(took.as_secs_f64() * 1e3);
        self.trace.checkpoint_pages.push((writes() - w0) as f64);
        self.edits_since_checkpoint = 0;
        Ok(took)
    }

    /// Runs one operation on a drawn key, counting it; returns its
    /// latency, or `None` when it failed.
    fn op(
        &mut self,
        k: &Kernel,
        s: &Session,
        stmt: &mut Prepared<'_>,
        edit: bool,
    ) -> Option<Duration> {
        let key = self.keys.draw(&mut self.rng);
        self.report.attempted += 1;
        let out = if edit {
            self.edit(k, s, stmt, key)
        } else {
            self.read(k, s, stmt, key)
        };
        match out {
            Ok(took) => Some(took),
            Err(e) => {
                self.report.failed += 1;
                self.report.problems.push(format!(
                    "{} of brep {key}: {e}",
                    if edit { "edit" } else { "checkout" }
                ));
                None
            }
        }
    }

    /// Whole rounds of the workload's mix until `seconds` have passed.
    fn measure(&mut self, k: &Kernel) -> Res<()> {
        let s = k.db.session();
        let mut stmt = s.prepare(CHECKOUT).map_err(err)?;
        let edits = self.cfg.workload.edits_per_round();
        let io0 = k.device.stats().snapshot();
        let deadline = Instant::now() + Duration::from_secs_f64(self.cfg.seconds);
        let mut round = 0u64;
        while round == 0 || Instant::now() < deadline {
            self.traced = self.cfg.trace && round % 2 == 1;
            s.set_profiling(self.traced);
            k.set_timing(self.traced);
            let mut plan: Vec<bool> = (0..ROUND_OPS).map(|i| i < edits).collect();
            self.rng.shuffle(&mut plan);
            let mut round_ns = 0u64;
            for edit in plan {
                let Some(took) = self.op(k, &s, &mut stmt, edit) else {
                    continue;
                };
                round_ns += took.as_nanos() as u64;
                let us = took.as_secs_f64() * 1e6;
                if edit {
                    self.edit_us.push(us);
                    self.measured_edits += 1;
                    self.edits_since_checkpoint += 1;
                    if self.edits_since_checkpoint == self.cfg.sizing.checkpoint_every {
                        round_ns += self.checkpoint(k)?.as_nanos() as u64;
                    }
                } else {
                    self.read_us.push(us);
                }
            }
            self.kernel_ns += round_ns;
            self.measured_ops += ROUND_OPS as u64;
            if self.traced {
                self.trace.traced_ops += ROUND_OPS as u64;
                self.trace.traced_ns += round_ns;
            } else {
                self.trace.untraced_ops += ROUND_OPS as u64;
                self.trace.untraced_ns += round_ns;
            }
            round += 1;
        }
        self.traced = false;
        s.set_profiling(false);
        k.set_timing(false);
        let io = k.device.stats().snapshot();
        self.write_bytes_per_edit =
            (io.bytes_written - io0.bytes_written) as f64 / self.measured_edits.max(1) as f64;
        self.coherence(&k.db, "end of the measured phase");
        Ok(())
    }

    fn coherence(&mut self, db: &Prima, when: &str) {
        if let Err(v) = MetricsSnapshot::check_coherence(&db.metrics()) {
            self.report
                .problems
                .push(format!("metrics incoherent at {when}: {}", v.join("; ")));
        }
    }

    /// The warm-up after load and the check after each restart.
    fn verify_all(&mut self, k: &Kernel, after_restart: bool) -> Res<()> {
        let check = check_database(&k.db, &self.model)?;
        self.report.attempted += check.checkouts;
        self.report.failed += check.failures.len() as u64;
        let when = if after_restart { "restart" } else { "load" };
        for p in check.failures.into_iter().chain(check.count_mismatches) {
            self.report.problems.push(format!("after {when}: {p}"));
        }
        Ok(())
    }

    /// Checkpoint, a fixed tail of edits, crash, restart, check.
    fn crash_and_restart(&mut self, k: Kernel) -> Res<(Kernel, Duration)> {
        self.checkpoint(&k)?;
        {
            let s = k.db.session();
            let mut stmt = s.prepare(CHECKOUT).map_err(err)?;
            for _ in 0..self.cfg.sizing.log_tail_edits {
                self.op(&k, &s, &mut stmt, true);
            }
        }
        self.coherence(&k.db, "crash");
        let Kernel { db, device, timed } = k;
        self.trace
            .log_bytes
            .push(device.wal_contents().map_err(err)?.len() as f64);
        // The crash: no destructor runs, so nothing beyond what the
        // kernel already wrote to the device survives.
        std::mem::forget(db);
        let replay = if self.cfg.trace {
            let t = Instant::now();
            Wal::replay(&device).map_err(err)?;
            Some(t.elapsed())
        } else {
            None
        };
        let t = Instant::now();
        let db = Prima::open_device(Arc::clone(&device)).map_err(err)?;
        let restart = t.elapsed();
        if let Some(replay) = replay {
            self.trace.replay_ms.push(replay.as_secs_f64() * 1e3);
            self.trace
                .rebuild_ms
                .push(restart.saturating_sub(replay).as_secs_f64() * 1e3);
        }
        let k = Kernel { db, device, timed };
        self.verify_all(&k, true)?;
        Ok((k, restart))
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Builds a kernel, loads it and checks every brep once (the warm-up).
fn setup(cfg: &Config) -> Res<(Kernel, Driver)> {
    let sizing = cfg.sizing;
    let k = Kernel::build(sizing.buffer(cfg.workload), cfg.trace)?;
    let mut rng = Rng::new(cfg.seed);
    let model = load(&k.db, &sizing, &mut rng)?;
    let mut d = Driver {
        cfg: *cfg,
        attrs: Attrs::resolve(k.db.schema())?,
        keys: Keys::new(cfg.workload, sizing.solids, &mut rng),
        model,
        rng,
        report: Report::default(),
        read_us: Vec::new(),
        edit_us: Vec::new(),
        kernel_ns: 0,
        measured_ops: 0,
        measured_edits: 0,
        write_bytes_per_edit: 0.0,
        edits_since_checkpoint: 0,
        trace: LayerTrace::default(),
        traced: false,
    };
    d.verify_all(&k, false)?;
    Ok((k, d))
}

/// Runs one workload end to end and returns its report.
pub fn run(cfg: &Config) -> Res<Report> {
    let sizing = cfg.sizing;
    let t = Instant::now();
    let (mut k, mut d) = setup(cfg)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let stored = k.stored_bytes_per_atom()?;
    eprintln!(
        "{}: {} solids, buffer {} KiB, stored {:.0} KiB",
        cfg.workload.name(),
        sizing.solids,
        sizing.buffer(cfg.workload) >> 10,
        stored * (sizing.solids * 28) as f64 / 1024.0,
    );

    d.measure(&k)?;

    let mut restarts = Vec::new();
    for _ in 0..sizing.restarts {
        let (next, took) = d.crash_and_restart(k)?;
        k = next;
        restarts.push(took.as_secs_f64());
    }
    d.coherence(&k.db, "end of run");
    let peak_rss = peak_rss_mb();
    drop(k);
    // The other set-ups run after the peak is read, so that memory their
    // dropped kernels leave to the allocator does not count.
    for _ in 1..sizing.setups {
        let t = Instant::now();
        let (again, checked) = setup(cfg)?;
        setups.push(t.elapsed().as_secs_f64());
        drop(again);
        d.report.attempted += checked.report.attempted;
        d.report.failed += checked.report.failed;
        d.report.problems.extend(checked.report.problems);
    }

    let mut report = std::mem::take(&mut d.report);
    if cfg.trace {
        report.metrics = d.trace.metrics();
        return Ok(report);
    }
    let mut m = vec![Metric::new(
        "setup_s",
        median(&mut setups).unwrap_or(0.0),
        "s",
    )];
    m.push(Metric::new(
        "throughput_ops_s",
        d.measured_ops as f64 / (d.kernel_ns as f64 / 1e9).max(1e-9),
        "ops/s",
    ));
    for (name50, name99, samples) in [
        ("read_p50_us", "read_p99_us", &mut d.read_us),
        ("edit_p50_us", "edit_p99_us", &mut d.edit_us),
    ] {
        if samples.is_empty() {
            continue;
        }
        let tail = p99(samples);
        samples.sort_by(f64::total_cmp);
        m.push(Metric::new(name50, quantile(samples, 0.5), "us"));
        if let Some(v) = tail {
            m.push(Metric::new(name99, v, "us"));
        }
    }
    m.push(Metric::new(
        "restart_s",
        median(&mut restarts).unwrap_or(0.0),
        "s",
    ));
    m.push(Metric::new(
        "write_bytes_per_edit",
        d.write_bytes_per_edit,
        "B",
    ));
    m.push(Metric::new("stored_bytes_per_atom", stored, "B"));
    m.push(Metric::new("peak_rss_mb", peak_rss, "MB"));
    report.metrics = m;
    Ok(report)
}
