//! Per-layer accounting for the traced run: outside timings of the
//! public calls, the kernel profiler's span totals, counter deltas from
//! `Prima::metrics()`, the device passthrough's counters, and checkpoint
//! and recovery timings. Everything is summed over the traced rounds and
//! reported per operation (or per read / per edit, as the name says).

use crate::device::DeviceSnapshot;
use crate::stats::median;
use crate::Metric;
use prima::{MetricsSnapshot, Span, SpanKind};

/// Span time by kind, summed over every profiled statement (ns).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub snapshot_pin: u64,
    pub lock_acquire: u64,
    pub plan: u64,
    pub root_access: u64,
    pub assembly: u64,
    pub dml_apply: u64,
    pub batch_read: u64,
    pub buffer_fix: u64,
    pub page_load: u64,
    pub wal_append: u64,
    pub wal_force: u64,
    /// Statement time that no direct child span covers.
    pub unattributed: u64,
}

impl SpanTotals {
    /// Adds one statement's span tree, rooted at a `Statement` span.
    pub fn add(&mut self, root: &Span) {
        self.visit(root);
        // A page load is a leaf inside the buffer fix that caused it, so
        // it must not be subtracted twice.
        let covered: u64 = root
            .children
            .iter()
            .filter(|c| c.kind != SpanKind::PageLoad)
            .map(|c| c.nanos)
            .sum();
        self.unattributed += root.nanos.saturating_sub(covered);
    }

    fn visit(&mut self, span: &Span) {
        let slot = match span.kind {
            SpanKind::SnapshotPin => Some(&mut self.snapshot_pin),
            SpanKind::LockAcquire | SpanKind::LockWait => Some(&mut self.lock_acquire),
            SpanKind::Parse | SpanKind::Plan => Some(&mut self.plan),
            SpanKind::RootAccess => Some(&mut self.root_access),
            SpanKind::AssemblyLevel(_) => Some(&mut self.assembly),
            SpanKind::DmlApply => Some(&mut self.dml_apply),
            SpanKind::BatchRead => Some(&mut self.batch_read),
            SpanKind::BufferFix => Some(&mut self.buffer_fix),
            SpanKind::PageLoad => Some(&mut self.page_load),
            SpanKind::WalAppend => Some(&mut self.wal_append),
            SpanKind::WalForce => Some(&mut self.wal_force),
            SpanKind::Statement => None,
        };
        if let Some(slot) = slot {
            *slot += span.nanos;
        }
        for c in &span.children {
            self.visit(c);
        }
    }
}

/// Counter deltas taken around operations of one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub fix_calls: u64,
    pub hits: u64,
    pub misses: u64,
    pub pages_loaded: u64,
    pub evictions: u64,
    pub writebacks: u64,
    pub lock_acquisitions: u64,
    pub versions_installed: u64,
    pub snapshot_reads: u64,
    pub batch_atoms: u64,
    pub wal_bytes: u64,
    pub wal_forces: u64,
    pub seeks: u64,
    pub sim_ns: u64,
    pub device: DeviceSnapshot,
}

impl Counts {
    /// Adds the delta between two kernel snapshots and two passthrough
    /// snapshots taken around one operation.
    pub fn add(
        &mut self,
        after: &MetricsSnapshot,
        before: &MetricsSnapshot,
        dev_after: &DeviceSnapshot,
        dev_before: &DeviceSnapshot,
    ) {
        let d = after.delta(before);
        self.fix_calls += d.buffer.fix_calls;
        self.hits += d.buffer.hits;
        self.misses += d.buffer.misses;
        self.pages_loaded += d.buffer.pages_loaded;
        self.evictions += d.buffer.evictions;
        self.writebacks += d.buffer.writebacks;
        self.lock_acquisitions += d.lock.acquisitions;
        self.versions_installed += d.version.versions_installed;
        self.snapshot_reads += d.version.snapshot_reads;
        self.batch_atoms += d.access.batch_atoms;
        self.wal_bytes += d.io.wal_bytes;
        self.wal_forces += d.io.wal_forces;
        self.seeks += d.io.seeks;
        self.sim_ns += d.io.sim_time_ns;
        let dd = dev_after.delta(dev_before);
        let dv = &mut self.device;
        dv.read_calls += dd.read_calls;
        dv.read_ns += dd.read_ns;
        dv.write_calls += dd.write_calls;
        dv.write_ns += dd.write_ns;
        dv.wal_appends += dd.wal_appends;
        dv.wal_append_ns += dd.wal_append_ns;
    }

    fn merged(&self, o: &Counts) -> Counts {
        let (a, b) = (&self.device, &o.device);
        Counts {
            fix_calls: self.fix_calls + o.fix_calls,
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            pages_loaded: self.pages_loaded + o.pages_loaded,
            evictions: self.evictions + o.evictions,
            writebacks: self.writebacks + o.writebacks,
            lock_acquisitions: self.lock_acquisitions + o.lock_acquisitions,
            versions_installed: self.versions_installed + o.versions_installed,
            snapshot_reads: self.snapshot_reads + o.snapshot_reads,
            batch_atoms: self.batch_atoms + o.batch_atoms,
            wal_bytes: self.wal_bytes + o.wal_bytes,
            wal_forces: self.wal_forces + o.wal_forces,
            seeks: self.seeks + o.seeks,
            sim_ns: self.sim_ns + o.sim_ns,
            device: DeviceSnapshot {
                read_calls: a.read_calls + b.read_calls,
                read_ns: a.read_ns + b.read_ns,
                write_calls: a.write_calls + b.write_calls,
                write_ns: a.write_ns + b.write_ns,
                wal_appends: a.wal_appends + b.wal_appends,
                wal_append_ns: a.wal_append_ns + b.wal_append_ns,
            },
        }
    }
}

/// Everything the traced run accumulates.
#[derive(Debug, Clone, Default)]
pub struct LayerTrace {
    pub reads: u64,
    pub edits: u64,
    pub modifies: u64,
    pub read_ns: u64,
    pub checkout_locked_ns: u64,
    pub modify_ns: u64,
    pub commit_ns: u64,
    pub spans: SpanTotals,
    pub read_counts: Counts,
    pub edit_counts: Counts,
    pub decode_ns: u64,
    pub decode_atoms: u64,
    /// Operations and time inside kernel calls, traced and untraced
    /// rounds apart (the tracing-overhead figure).
    pub traced_ops: u64,
    pub traced_ns: u64,
    pub untraced_ops: u64,
    pub untraced_ns: u64,
    pub checkpoint_ms: Vec<f64>,
    pub checkpoint_pages: Vec<f64>,
    pub log_bytes: Vec<f64>,
    pub replay_ms: Vec<f64>,
    pub rebuild_ms: Vec<f64>,
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

fn med(v: &[f64]) -> f64 {
    median(&mut v.to_vec()).unwrap_or(0.0)
}

impl LayerTrace {
    /// The per-layer metrics, in the order `BENCHMARK.json` lists them.
    pub fn metrics(&self) -> Vec<Metric> {
        let ops = self.reads + self.edits;
        let all = self.read_counts.merged(&self.edit_counts);
        let us = |ns: u64, den: u64| ratio(ns as f64 / 1e3, den);
        let s = &self.spans;
        let (r, e) = (&self.read_counts, &self.edit_counts);
        let throughput = |ops: u64, ns: u64| ratio(ops as f64, ns);
        let traced = throughput(self.traced_ops, self.traced_ns);
        let untraced = throughput(self.untraced_ops, self.untraced_ns);
        let overhead = if untraced > 0.0 {
            (untraced - traced) / untraced * 100.0
        } else {
            0.0
        };
        vec![
            Metric::new("session.read_us", us(self.read_ns, self.reads), "us"),
            Metric::new(
                "session.checkout_locked_us",
                us(self.checkout_locked_ns, self.edits),
                "us",
            ),
            Metric::new("session.modify_us", us(self.modify_ns, self.modifies), "us"),
            Metric::new("session.commit_us", us(self.commit_ns, self.edits), "us"),
            Metric::new(
                "lock.acquisitions_per_edit",
                ratio(e.lock_acquisitions as f64, self.edits),
                "count",
            ),
            Metric::new(
                "version.installed_per_edit",
                ratio(e.versions_installed as f64, self.edits),
                "count",
            ),
            Metric::new(
                "version.snapshot_reads_per_read",
                ratio(r.snapshot_reads as f64, self.reads),
                "count",
            ),
            Metric::new("span.snapshot_pin_us", us(s.snapshot_pin, ops), "us"),
            Metric::new("span.lock_acquire_us", us(s.lock_acquire, ops), "us"),
            Metric::new("span.plan_us", us(s.plan, ops), "us"),
            Metric::new("span.root_access_us", us(s.root_access, ops), "us"),
            Metric::new("span.assembly_us", us(s.assembly, ops), "us"),
            Metric::new("span.dml_apply_us", us(s.dml_apply, ops), "us"),
            Metric::new(
                "access.decode_us_per_atom",
                us(self.decode_ns, self.decode_atoms),
                "us",
            ),
            Metric::new(
                "access.atoms_per_read",
                ratio(r.batch_atoms as f64, self.reads),
                "count",
            ),
            Metric::new("span.batch_read_us", us(s.batch_read, ops), "us"),
            Metric::new(
                "buffer.fix_calls_per_read",
                ratio(r.fix_calls as f64, self.reads),
                "count",
            ),
            Metric::new(
                "buffer.hit_ratio",
                ratio(all.hits as f64, all.hits + all.misses),
                "ratio",
            ),
            Metric::new(
                "buffer.pages_loaded_per_read",
                ratio(r.pages_loaded as f64, self.reads),
                "count",
            ),
            Metric::new(
                "buffer.evictions_per_op",
                ratio(all.evictions as f64, ops),
                "count",
            ),
            Metric::new(
                "buffer.writebacks_per_op",
                ratio(all.writebacks as f64, ops),
                "count",
            ),
            Metric::new("span.buffer_fix_us", us(s.buffer_fix, ops), "us"),
            Metric::new("span.page_load_us", us(s.page_load, ops), "us"),
            Metric::new(
                "wal.bytes_per_edit",
                ratio(e.wal_bytes as f64, self.edits),
                "B",
            ),
            Metric::new(
                "wal.forces_per_edit",
                ratio(e.wal_forces as f64, self.edits),
                "count",
            ),
            Metric::new("span.wal_append_us", us(s.wal_append, ops), "us"),
            Metric::new("span.wal_force_us", us(s.wal_force, ops), "us"),
            Metric::new(
                "device.read_calls_per_op",
                ratio(all.device.read_calls as f64, ops),
                "count",
            ),
            Metric::new("device.read_us_per_op", us(all.device.read_ns, ops), "us"),
            Metric::new(
                "device.write_calls_per_op",
                ratio(
                    (all.device.write_calls + all.device.wal_appends) as f64,
                    ops,
                ),
                "count",
            ),
            Metric::new(
                "device.wal_append_us_per_edit",
                us(e.device.wal_append_ns, self.edits),
                "us",
            ),
            Metric::new("device.seeks_per_op", ratio(all.seeks as f64, ops), "count"),
            Metric::new(
                "device.sim_ms_per_op",
                ratio(all.sim_ns as f64 / 1e6, ops),
                "ms",
            ),
            Metric::new("checkpoint.ms", med(&self.checkpoint_ms), "ms"),
            Metric::new(
                "checkpoint.pages_written",
                med(&self.checkpoint_pages),
                "count",
            ),
            Metric::new("recovery.log_bytes", med(&self.log_bytes), "B"),
            Metric::new("recovery.replay_ms", med(&self.replay_ms), "ms"),
            Metric::new("recovery.rebuild_ms", med(&self.rebuild_ms), "ms"),
            Metric::new("span.unattributed_us", us(s.unattributed, ops), "us"),
            Metric::new("trace.overhead_pct", overhead, "%"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, nanos: u64, children: Vec<Span>) -> Span {
        Span {
            kind,
            nanos,
            count: 1,
            bytes: 0,
            children,
        }
    }

    #[test]
    fn unattributed_is_root_minus_direct_children() {
        let root = span(
            SpanKind::Statement,
            1_000,
            vec![
                span(SpanKind::SnapshotPin, 100, vec![]),
                span(
                    SpanKind::AssemblyLevel(0),
                    500,
                    vec![
                        span(SpanKind::BufferFix, 200, vec![]),
                        span(SpanKind::PageLoad, 150, vec![]),
                    ],
                ),
                span(SpanKind::AssemblyLevel(1), 250, vec![]),
            ],
        );
        let mut t = SpanTotals::default();
        t.add(&root);
        assert_eq!(t.unattributed, 150);
        assert_eq!(t.assembly, 750);
        assert_eq!((t.buffer_fix, t.page_load, t.snapshot_pin), (200, 150, 100));
    }
}
