//! Self-tests of the benchmark's own code: the oracle rejects what it
//! must, every workload runs to its end at a tiny size, and the metric
//! names match `BENCHMARK.json`.

use prima::{MoleculeSet, Prima, QueryOptions, Value};
use prima_mad::ddl::FIG_2_3_DDL;
use prima_perfbench::model::{check_molecule, Attrs, BoxShape, Solid};
use prima_perfbench::rng::Rng;
use prima_perfbench::workload::{check_database, load, run, Config, Sizing, Workload};
use prima_storage::{BlockDevice, SimDisk};
use std::collections::BTreeSet;
use std::sync::Arc;

const CHECKOUT: &str = "SELECT ALL FROM brep-face-edge-point WHERE brep_no = ?";

fn durable_kernel(device: &Arc<dyn BlockDevice>) -> Prima {
    Prima::builder()
        .buffer_bytes(1 << 20)
        .device(Arc::clone(device))
        .durable()
        .build_with_ddl(FIG_2_3_DDL)
        .unwrap()
}

fn checkout(db: &Prima, key: i64) -> MoleculeSet {
    let s = db.session();
    let mut stmt = s.prepare(CHECKOUT).unwrap();
    stmt.bind(&[Value::Int(key)]).unwrap();
    stmt.query(&QueryOptions::default()).unwrap().set
}

fn spec() -> serde_free::Spec {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    serde_free::Spec::parse(&text)
}

/// Just enough of `BENCHMARK.json` for these tests, without a JSON crate.
mod serde_free {
    pub struct Spec {
        pub end_to_end: Vec<String>,
        pub per_layer: Vec<String>,
    }

    fn names(section: &str) -> Vec<String> {
        section
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    impl Spec {
        pub fn parse(text: &str) -> Spec {
            let section = |key: &str| {
                let start = text.find(&format!("\"{key}\"")).unwrap();
                let rest = &text[start..];
                rest[..rest.find(']').unwrap()].to_string()
            };
            Spec {
                end_to_end: names(&section("end_to_end")),
                per_layer: names(&section("per_layer")),
            }
        }
    }
}

#[test]
fn oracle_accepts_an_intact_checkout_and_rejects_damage() {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = durable_kernel(&device);
    let sizing = Sizing::TINY;
    let model = load(&db, &sizing, &mut Rng::new(7)).unwrap();
    let attrs = Attrs::resolve(db.schema()).unwrap();
    let set = checkout(&db, 3);
    check_molecule(&set, 3, model.solid(3), &attrs).unwrap();

    // Wrong key: the root's brep_no differs.
    assert!(check_molecule(&set, 4, model.solid(4), &attrs).is_err());

    // One point removed from every edge that reaches it.
    let mut damaged = set.clone();
    let point = damaged.node_id("point").unwrap();
    let victim = model.solid(3).points[5];
    fn drop_atom(m: &mut prima::MolAtom, node: usize, id: prima::AtomId) {
        m.children.retain(|c| !(c.node == node && c.atom.id == id));
        for c in &mut m.children {
            drop_atom(c, node, id);
        }
    }
    drop_atom(&mut damaged.molecules[0].root, point, victim);
    let e = check_molecule(&damaged, 3, model.solid(3), &attrs).unwrap_err();
    assert!(e.contains("7 points"), "{e}");

    // One coordinate of one point changed.
    let mut moved = set.clone();
    let placement = db
        .schema()
        .type_by_name("point")
        .unwrap()
        .attribute_index("placement")
        .unwrap();
    fn shift(m: &mut prima::MolAtom, node: usize, placement: usize) -> bool {
        if m.node == node {
            if let Value::Record(fields) = &mut m.atom.values[placement] {
                fields[2].1 = Value::Real(fields[2].1.as_real().unwrap() + 1e-9);
                return true;
            }
        }
        m.children.iter_mut().any(|c| shift(c, node, placement))
    }
    assert!(shift(&mut moved.molecules[0].root, point, placement));
    let e = check_molecule(&moved, 3, model.solid(3), &attrs).unwrap_err();
    assert!(e.contains("model has"), "{e}");
}

#[test]
fn oracle_rejects_a_lost_edit_after_restart() {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = durable_kernel(&device);
    let mut model = load(&db, &Sizing::TINY, &mut Rng::new(9)).unwrap();
    let mut rng = Rng::new(10);
    fn edit(db: &Prima, solid: &Solid, shape: &BoxShape, commit: bool) {
        let s = db.session();
        s.begin().unwrap();
        for (i, p) in solid.points.iter().enumerate() {
            s.modify_atom_named(*p, &[("placement", shape.placement(i))])
                .unwrap();
        }
        s.modify_atom_named(solid.brep, &[("hull", shape.hull())])
            .unwrap();
        if commit {
            s.commit().unwrap();
        } else {
            std::mem::forget(s);
        }
    }
    let kept = BoxShape::random(&mut rng);
    edit(&db, model.solid(2), &kept, true);
    model.acknowledge(2, kept);
    // Never committed: the crash below loses it.
    let lost = BoxShape::random(&mut rng);
    edit(&db, model.solid(5), &lost, false);
    std::mem::forget(db);

    let db = Prima::open_device(Arc::clone(&device)).unwrap();
    let check = check_database(&db, &model).unwrap();
    assert!(
        check.failures.is_empty() && check.count_mismatches.is_empty(),
        "{check:?}"
    );
    assert_eq!(check.checkouts, Sizing::TINY.solids as u64);

    // Had the kernel acknowledged that edit, the restart lost it.
    model.acknowledge(5, lost);
    let check = check_database(&db, &model).unwrap();
    assert_eq!(check.failures.len(), 1, "{check:?}");
    assert!(check.failures[0].contains("brep 5"), "{check:?}");
}

#[test]
fn every_workload_completes_at_a_tiny_size() {
    let spec = spec();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                seed: 3,
                seconds: 0.2,
                trace,
                sizing: Sizing::TINY,
            };
            let report = run(&cfg).unwrap();
            assert!(
                report.correct(),
                "{workload:?} trace {trace}: {:?}",
                report.problems
            );
            assert!(report.attempted > 0 && report.failed == 0);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            if trace {
                assert_eq!(names, spec.per_layer, "{workload:?}: traced metrics");
            } else {
                // A tiny run may have too few samples for a p99.
                let want: Vec<&String> = spec
                    .end_to_end
                    .iter()
                    .filter(|n| !n.ends_with("_p99_us") || names.contains(&n.as_str()))
                    .collect();
                assert_eq!(names, want, "{workload:?}: untraced metrics");
            }
            for m in &report.metrics {
                assert!(
                    m.value.is_finite(),
                    "{workload:?}: {} = {}",
                    m.name,
                    m.value
                );
            }
        }
    }
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let spec = spec();
    let all: Vec<&String> = spec.end_to_end.iter().chain(&spec.per_layer).collect();
    assert_eq!(spec.end_to_end.len(), 10);
    assert_eq!(spec.per_layer.len(), 40);
    for name in &all {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && name.chars().next().unwrap().is_ascii_alphanumeric(),
            "{name}"
        );
    }
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "names repeat"
    );
}
