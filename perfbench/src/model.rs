//! The benchmark's own model of the database: every generated box and
//! every acknowledged edit. Each checkout and the state after restart
//! are checked against it and against the shape properties of a box
//! (6 faces, 12 edges, 8 points, V − E + F = 2), never against output
//! recorded from an earlier run.

use crate::rng::Rng;
use prima::{AtomId, MoleculeSet, Schema, Value};
use std::collections::BTreeSet;

/// Unit-cube corners; point `i` of a box sits at `origin + CORNERS[i] * extent`.
pub const CORNERS: [[f64; 3]; 8] = [
    [0., 0., 0.],
    [1., 0., 0.],
    [1., 1., 0.],
    [0., 1., 0.],
    [0., 0., 1.],
    [1., 0., 1.],
    [1., 1., 1.],
    [0., 1., 1.],
];

/// The 12 edges of a hexahedron as corner index pairs.
pub const EDGES: [(usize, usize); 12] = [
    (0, 1),
    (1, 2),
    (2, 3),
    (3, 0),
    (4, 5),
    (5, 6),
    (6, 7),
    (7, 4),
    (0, 4),
    (1, 5),
    (2, 6),
    (3, 7),
];

/// The 6 faces: their border edge indices and their corner point indices.
pub const FACES: [([usize; 4], [usize; 4]); 6] = [
    ([0, 1, 2, 3], [0, 1, 2, 3]),
    ([4, 5, 6, 7], [4, 5, 6, 7]),
    ([0, 9, 4, 8], [0, 1, 5, 4]),
    ([2, 10, 6, 11], [2, 3, 7, 6]),
    ([1, 10, 5, 9], [1, 2, 6, 5]),
    ([3, 11, 7, 8], [3, 0, 4, 7]),
];

/// Atoms one generated solid contributes, per type.
pub const ATOMS_PER_SOLID: [(&str, u64); 5] = [
    ("solid", 1),
    ("brep", 1),
    ("face", 6),
    ("edge", 12),
    ("point", 8),
];

/// An axis-aligned box: its origin and its extents (the brep `hull`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxShape {
    pub origin: [f64; 3],
    pub extent: [f64; 3],
}

impl BoxShape {
    pub fn random(rng: &mut Rng) -> BoxShape {
        let mut origin = [0.0; 3];
        let mut extent = [0.0; 3];
        for o in &mut origin {
            *o = rng.range(-100.0, 100.0);
        }
        for e in &mut extent {
            *e = rng.range(1.0, 10.0);
        }
        BoxShape { origin, extent }
    }

    pub fn corner(&self, i: usize) -> [f64; 3] {
        let c = CORNERS[i];
        [
            self.origin[0] + c[0] * self.extent[0],
            self.origin[1] + c[1] * self.extent[1],
            self.origin[2] + c[2] * self.extent[2],
        ]
    }

    pub fn placement(&self, i: usize) -> Value {
        let [x, y, z] = self.corner(i);
        Value::Record(vec![
            ("x_coord".into(), Value::Real(x)),
            ("y_coord".into(), Value::Real(y)),
            ("z_coord".into(), Value::Real(z)),
        ])
    }

    pub fn hull(&self) -> Value {
        Value::Array(self.extent.iter().map(|&e| Value::Real(e)).collect())
    }

    pub fn edge_length(&self, e: usize) -> f64 {
        let (a, b) = EDGES[e];
        let (p, q) = (self.corner(a), self.corner(b));
        ((q[0] - p[0]).powi(2) + (q[1] - p[1]).powi(2) + (q[2] - p[2]).powi(2)).sqrt()
    }

    pub fn face_area(&self, f: usize) -> f64 {
        let [dx, dy, dz] = self.extent;
        match f {
            0 | 1 => dx * dy,
            2 | 3 => dx * dz,
            _ => dy * dz,
        }
    }
}

/// One generated solid as the model knows it.
#[derive(Debug, Clone)]
pub struct Solid {
    pub brep: AtomId,
    /// Point atom of corner `i`.
    pub points: [AtomId; 8],
    pub shape: BoxShape,
}

/// Every solid, indexed by `brep_no - 1`.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub solids: Vec<Solid>,
}

impl Model {
    pub fn solid(&self, brep_no: i64) -> &Solid {
        &self.solids[(brep_no - 1) as usize]
    }

    /// Records an acknowledged edit.
    pub fn acknowledge(&mut self, brep_no: i64, shape: BoxShape) {
        self.solids[(brep_no - 1) as usize].shape = shape;
    }

    /// Atoms of each type the generator created.
    pub fn expected_counts(&self) -> Vec<(&'static str, u64)> {
        ATOMS_PER_SOLID
            .iter()
            .map(|&(t, k)| (t, k * self.solids.len() as u64))
            .collect()
    }
}

/// Attribute positions the checks read, resolved once from the schema.
#[derive(Debug, Clone, Copy)]
pub struct Attrs {
    brep_no: usize,
    hull: usize,
    border: usize,
    boundary: usize,
    placement: usize,
}

impl Attrs {
    pub fn resolve(schema: &Schema) -> Result<Attrs, String> {
        let at = |ty: &str, attr: &str| {
            schema
                .type_by_name(ty)
                .and_then(|t| t.attribute_index(attr))
                .ok_or_else(|| format!("schema lacks {ty}.{attr}"))
        };
        Ok(Attrs {
            brep_no: at("brep", "brep_no")?,
            hull: at("brep", "hull")?,
            border: at("face", "border")?,
            boundary: at("edge", "boundary")?,
            placement: at("point", "placement")?,
        })
    }
}

fn ids_of(set: &MoleculeSet, label: &str) -> Result<BTreeSet<AtomId>, String> {
    if set.node_id(label).is_none() {
        return Err(format!("molecule has no {label} component"));
    }
    Ok(set.atoms_of(label).iter().map(|a| a.id).collect())
}

fn reals(v: &Value) -> Option<Vec<f64>> {
    match v {
        Value::Record(fields) => fields.iter().map(|(_, x)| x.as_real()).collect(),
        Value::Array(items) => items.iter().map(Value::as_real).collect(),
        _ => None,
    }
}

/// Checks one checked-out `brep-face-edge-point` molecule for `brep_no`
/// against the model and the shape properties of a box.
pub fn check_molecule(
    set: &MoleculeSet,
    brep_no: i64,
    solid: &Solid,
    attrs: &Attrs,
) -> Result<(), String> {
    if set.len() != 1 {
        return Err(format!(
            "brep {brep_no}: {} molecules, expected 1",
            set.len()
        ));
    }
    let breps = set.atoms_of("brep");
    let [brep] = breps.as_slice() else {
        return Err(format!(
            "brep {brep_no}: {} brep atoms, expected 1",
            breps.len()
        ));
    };
    if brep.id != solid.brep || brep.values[attrs.brep_no].as_int() != Some(brep_no) {
        return Err(format!(
            "brep {brep_no}: root is {} with brep_no {:?}",
            brep.id, brep.values[attrs.brep_no]
        ));
    }
    if reals(&brep.values[attrs.hull]).as_deref() != Some(&solid.shape.extent[..]) {
        return Err(format!(
            "brep {brep_no}: hull {:?} != model {:?}",
            brep.values[attrs.hull], solid.shape.extent
        ));
    }

    let faces = ids_of(set, "face")?;
    let edges = ids_of(set, "edge")?;
    let points = ids_of(set, "point")?;
    if (faces.len(), edges.len(), points.len()) != (6, 12, 8) {
        return Err(format!(
            "brep {brep_no}: {} faces, {} edges, {} points; expected 6, 12, 8",
            faces.len(),
            edges.len(),
            points.len()
        ));
    }
    let euler = points.len() as i64 - edges.len() as i64 + faces.len() as i64;
    if euler != 2 {
        return Err(format!("brep {brep_no}: V - E + F = {euler}"));
    }
    for face in set.atoms_of("face") {
        let border = face.values[attrs.border].referenced_ids();
        if border.len() != 4 || !border.iter().all(|e| edges.contains(e)) {
            return Err(format!(
                "brep {brep_no}: face {} has border {border:?}",
                face.id
            ));
        }
    }
    for edge in set.atoms_of("edge") {
        let ends = edge.values[attrs.boundary].referenced_ids();
        if ends.len() != 2 || !ends.iter().all(|p| points.contains(p)) {
            return Err(format!(
                "brep {brep_no}: edge {} has boundary {ends:?}",
                edge.id
            ));
        }
    }
    let expected: BTreeSet<AtomId> = solid.points.iter().copied().collect();
    if points != expected {
        return Err(format!(
            "brep {brep_no}: point ids {points:?} != model {expected:?}"
        ));
    }
    for point in set.atoms_of("point") {
        let i = solid
            .points
            .iter()
            .position(|p| *p == point.id)
            .unwrap_or(0);
        let want = solid.shape.corner(i);
        if reals(&point.values[attrs.placement]).as_deref() != Some(&want[..]) {
            return Err(format!(
                "brep {brep_no}: point {} at {:?}, model has {want:?}",
                point.id, point.values[attrs.placement]
            ));
        }
    }
    Ok(())
}
