//! Chromatic simplicial complexes with carrier tracking.
//!
//! A [`Complex`] is one "level" of an iterated subdivision: level 0 is a
//! *base* complex (the standard simplex `s`, or a task's input complex) and
//! level `m + 1` is obtained from level `m` by the standard chromatic
//! subdivision (see [`crate::subdivision`]). Every vertex of a subdivision
//! level records its *carrier* — the simplex of the previous level it
//! subdivides — so the carrier maps of the paper are O(1) lookups.
//!
//! Complexes are represented by their *maximal* simplices (facets); a
//! simplex belongs to the complex iff it is a face of a facet. Sub-complex
//! operations (closure, star, pure complement, skeleton, color restriction)
//! produce new `Complex` values that share the underlying vertex tables.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use crate::color::{ColorSet, ProcessId};
use crate::simplex::{Simplex, VertexId};

/// Data attached to a single vertex of a complex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexData {
    /// The process (color) of this vertex.
    pub color: ProcessId,
    /// The carrier of this vertex in the *parent* level: the simplex whose
    /// subdivision produced it. Empty at level 0.
    pub carrier: Simplex,
    /// The carrier of this vertex in the *base* (level 0) complex. At level
    /// 0, the singleton of the vertex itself.
    pub base_carrier: Simplex,
    /// The colors of `base_carrier`, cached: the set of processes "seen" by
    /// this vertex's process through all subdivision rounds.
    pub base_colors: ColorSet,
    /// Base-level payload (e.g. a task input value); 0 for subdivision
    /// vertices.
    pub label: u64,
}

pub(crate) struct Structure {
    pub(crate) n: usize,
    pub(crate) level: usize,
    pub(crate) parent: Option<Complex>,
    pub(crate) vertices: Vec<VertexData>,
    /// Canonical key → id, for subdivision levels (key = (color, carrier)).
    pub(crate) key_index: HashMap<(ProcessId, Simplex), VertexId>,
}

/// A chromatic simplicial complex, represented by its maximal simplices.
///
/// Cloning is cheap: the vertex table and facet list are shared.
///
/// # Examples
///
/// ```
/// use act_topology::Complex;
///
/// let s = Complex::standard(3);
/// assert_eq!(s.facet_count(), 1);
/// let chr = s.chromatic_subdivision();
/// assert_eq!(chr.facet_count(), 13); // Figure 1a of the paper
/// assert_eq!(chr.num_vertices(), 12);
/// ```
#[derive(Clone)]
pub struct Complex {
    pub(crate) structure: Arc<Structure>,
    pub(crate) facets: Arc<Vec<Simplex>>,
    /// For each vertex id, the indices (into `facets`) of facets containing
    /// it — the star index used for fast membership tests.
    pub(crate) star_index: Arc<Vec<Vec<u32>>>,
}

impl Complex {
    /// The standard `(n-1)`-simplex `s` as a complex: one vertex per
    /// process, a single facet.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds [`crate::MAX_PROCESSES`].
    pub fn standard(n: usize) -> Complex {
        assert!(n >= 1, "the standard simplex needs at least one process");
        let vertices: Vec<VertexData> = (0..n)
            .map(|i| VertexData {
                color: ProcessId::new(i),
                carrier: Simplex::empty(),
                base_carrier: Simplex::vertex(VertexId::from_index(i)),
                base_colors: ColorSet::singleton(ProcessId::new(i)),
                label: 0,
            })
            .collect();
        let facet = Simplex::from_vertices((0..n).map(VertexId::from_index));
        Complex::from_base(n, vertices, vec![facet])
    }

    /// Builds a base (level 0) complex from labeled vertices and facets.
    ///
    /// Each vertex is `(color, label)`; facets are given as lists of vertex
    /// indices. Used for task input/output complexes.
    ///
    /// # Panics
    ///
    /// Panics if a facet references an out-of-range vertex or contains two
    /// vertices of the same color.
    pub fn from_labeled_vertices(
        n: usize,
        verts: Vec<(ProcessId, u64)>,
        facets: Vec<Vec<usize>>,
    ) -> Complex {
        let vertices: Vec<VertexData> = verts
            .iter()
            .enumerate()
            .map(|(i, &(color, label))| VertexData {
                color,
                carrier: Simplex::empty(),
                base_carrier: Simplex::vertex(VertexId::from_index(i)),
                base_colors: ColorSet::singleton(color),
                label,
            })
            .collect();
        let facet_simplices: Vec<Simplex> = facets
            .into_iter()
            .map(|f| {
                let sx = Simplex::from_vertices(f.into_iter().map(VertexId::from_index));
                for v in sx.vertices() {
                    assert!(
                        v.index() < vertices.len(),
                        "facet references unknown vertex"
                    );
                }
                let mut colors = ColorSet::EMPTY;
                for v in sx.vertices() {
                    let c = vertices[v.index()].color;
                    assert!(!colors.contains(c), "facet has two vertices of color {c}");
                    colors = colors.with(c);
                }
                sx
            })
            .collect();
        Complex::from_base(n, vertices, facet_simplices)
    }

    fn from_base(n: usize, vertices: Vec<VertexData>, facets: Vec<Simplex>) -> Complex {
        let structure = Arc::new(Structure {
            n,
            level: 0,
            parent: None,
            vertices,
            key_index: HashMap::new(),
        });
        Complex::assemble(structure, facets)
    }

    pub(crate) fn assemble(structure: Arc<Structure>, facets: Vec<Simplex>) -> Complex {
        let mut star_index = vec![Vec::new(); structure.vertices.len()];
        for (i, f) in facets.iter().enumerate() {
            for v in f.vertices() {
                star_index[v.index()].push(i as u32);
            }
        }
        Complex {
            structure,
            facets: Arc::new(facets),
            star_index: Arc::new(star_index),
        }
    }

    /// The number of processes (colors) of the system.
    pub fn num_processes(&self) -> usize {
        self.structure.n
    }

    /// The subdivision level: 0 for a base complex, `m` for a sub-complex
    /// of `Chr^m` of the base.
    pub fn level(&self) -> usize {
        self.structure.level
    }

    /// The complex whose subdivision produced this level's vertices
    /// (`None` at level 0).
    pub fn parent(&self) -> Option<&Complex> {
        self.structure.parent.as_ref()
    }

    /// The base (level 0) complex.
    pub fn base(&self) -> &Complex {
        let mut c = self;
        while let Some(p) = c.parent() {
            c = p;
        }
        c
    }

    /// The number of vertices in this level's vertex table.
    ///
    /// This counts the vertices of the *full* subdivision level; a
    /// sub-complex sharing the table may use only some of them (see
    /// [`Complex::used_vertices`]).
    pub fn num_vertices(&self) -> usize {
        self.structure.vertices.len()
    }

    /// The vertices actually appearing in some facet of this complex.
    pub fn used_vertices(&self) -> Vec<VertexId> {
        let mut used: Vec<bool> = vec![false; self.num_vertices()];
        for f in self.facets.iter() {
            for v in f.vertices() {
                used[v.index()] = true;
            }
        }
        used.iter()
            .enumerate()
            .filter(|(_, &u)| u)
            .map(|(i, _)| VertexId::from_index(i))
            .collect()
    }

    /// The data of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this complex's level.
    pub fn vertex(&self, v: VertexId) -> &VertexData {
        &self.structure.vertices[v.index()]
    }

    /// The color (process) of vertex `v`.
    pub fn color(&self, v: VertexId) -> ProcessId {
        self.vertex(v).color
    }

    /// The colors of a simplex: `χ(σ)`.
    pub fn colors(&self, simplex: &Simplex) -> ColorSet {
        simplex
            .vertices()
            .iter()
            .fold(ColorSet::EMPTY, |acc, &v| acc.with(self.color(v)))
    }

    /// The carrier of vertex `v` in the parent level (empty at level 0).
    pub fn carrier_of_vertex(&self, v: VertexId) -> &Simplex {
        &self.vertex(v).carrier
    }

    /// The carrier of a simplex in the parent level: the union (equivalently,
    /// by the containment property, the maximum) of its vertices' carriers.
    pub fn carrier_in_parent(&self, simplex: &Simplex) -> Simplex {
        let mut acc = Simplex::empty();
        for &v in simplex.vertices() {
            acc = acc.union(&self.vertex(v).carrier);
        }
        acc
    }

    /// The carrier of a simplex in the base complex, as a simplex of the
    /// base's vertex table.
    pub fn carrier_in_base(&self, simplex: &Simplex) -> Simplex {
        let mut acc = Simplex::empty();
        for &v in simplex.vertices() {
            acc = acc.union(&self.vertex(v).base_carrier);
        }
        acc
    }

    /// The colors of the carrier of `v` in the base complex:
    /// `χ(carrier(v, base))` — the set of processes "seen" by `χ(v)` through
    /// all subdivision rounds.
    pub fn base_colors_of_vertex(&self, v: VertexId) -> ColorSet {
        self.vertex(v).base_colors
    }

    /// The colors of the carrier of a simplex in the base complex.
    pub fn carrier_colors(&self, simplex: &Simplex) -> ColorSet {
        simplex.vertices().iter().fold(ColorSet::EMPTY, |acc, &v| {
            acc.union(self.base_colors_of_vertex(v))
        })
    }

    /// The facets (maximal simplices) of this complex.
    pub fn facets(&self) -> &[Simplex] {
        &self.facets
    }

    /// The number of facets.
    pub fn facet_count(&self) -> usize {
        self.facets.len()
    }

    /// Whether the complex has no facets.
    pub fn is_void(&self) -> bool {
        self.facets.is_empty()
    }

    /// The dimension of the complex: the maximal facet dimension (−1 if
    /// void).
    pub fn dim(&self) -> isize {
        self.facets.iter().map(Simplex::dim).max().unwrap_or(-1)
    }

    /// Whether the complex is *pure*: all facets share the maximal
    /// dimension.
    pub fn is_pure(&self) -> bool {
        let d = self.dim();
        self.facets.iter().all(|f| f.dim() == d)
    }

    /// Whether the complex is chromatic: no facet repeats a color (the
    /// coloring is then automatically non-collapsing on every simplex).
    pub fn is_chromatic(&self) -> bool {
        self.facets.iter().all(|f| self.colors(f).len() == f.len())
    }

    /// Whether `simplex` belongs to this complex (is a face of a facet).
    /// The empty simplex belongs to every non-void complex.
    pub fn contains_simplex(&self, simplex: &Simplex) -> bool {
        if simplex.is_empty() {
            return !self.is_void();
        }
        let first = simplex.vertices()[0];
        if first.index() >= self.star_index.len() {
            return false;
        }
        self.star_index[first.index()]
            .iter()
            .any(|&fi| simplex.is_face_of(&self.facets[fi as usize]))
    }

    /// Enumerates every simplex of the complex (all faces of all facets,
    /// deduplicated), excluding the empty simplex. Exponential in facet
    /// size; intended for the small chromatic complexes of the paper.
    pub fn all_simplices(&self) -> Vec<Simplex> {
        let mut set = BTreeSet::new();
        for f in self.facets.iter() {
            for face in f.non_empty_faces() {
                set.insert(face);
            }
        }
        set.into_iter().collect()
    }

    /// Builds the sub-complex (sharing this complex's vertex table) whose
    /// facets are the maximal elements of `simplices`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a simplex references an unknown vertex.
    pub fn sub_complex<I: IntoIterator<Item = Simplex>>(&self, simplices: I) -> Complex {
        let sims: Vec<Simplex> = simplices.into_iter().collect();
        debug_assert!(sims
            .iter()
            .all(|s| s.vertices().iter().all(|v| v.index() < self.num_vertices())));
        Complex::assemble(Arc::clone(&self.structure), maximal_simplices(sims))
    }

    /// The pure complement `Pc(S, K)` (Section 2 of the paper): the closure
    /// of the facets of `K` having no face in `S`.
    ///
    /// `S` is given as a predicate over simplices; a facet survives iff none
    /// of its non-empty faces satisfies the predicate.
    pub fn pure_complement<F: FnMut(&Simplex) -> bool>(&self, mut in_s: F) -> Complex {
        let surviving: Vec<Simplex> = self
            .facets
            .iter()
            .filter(|facet| !facet.non_empty_faces().any(|face| in_s(&face)))
            .cloned()
            .collect();
        Complex::assemble(Arc::clone(&self.structure), surviving)
    }

    /// The star `St(S, K)`: all simplices of `K` having a face in `S`,
    /// returned as a list of simplices (the star is generally not a
    /// complex).
    pub fn star<F: FnMut(&Simplex) -> bool>(&self, mut in_s: F) -> Vec<Simplex> {
        let mut out = BTreeSet::new();
        for facet in self.facets.iter() {
            for face in facet.non_empty_faces() {
                if face.non_empty_faces().any(|sub| in_s(&sub)) {
                    out.insert(face);
                }
            }
        }
        out.into_iter().collect()
    }

    /// The `k`-skeleton: the sub-complex of simplices of dimension ≤ `k`.
    pub fn skeleton(&self, k: isize) -> Complex {
        let mut sims = BTreeSet::new();
        for facet in self.facets.iter() {
            if facet.dim() <= k {
                sims.insert(facet.clone());
            } else {
                // All (k+1)-subsets of the facet.
                for face in facet.non_empty_faces() {
                    if face.dim() == k {
                        sims.insert(face);
                    }
                }
            }
        }
        self.sub_complex(sims)
    }

    /// The sub-complex of simplices whose base carrier uses only colors in
    /// `allowed` — i.e. `K ∩ Chr^m(t)` where `t` is the face of the base
    /// spanned by `allowed` (for a base with one vertex per color).
    ///
    /// This is the `Δ(σ) = L ∩ Chr^ℓ(σ)` operation of affine tasks.
    pub fn restrict_carrier_colors(&self, allowed: ColorSet) -> Complex {
        let mut sims = Vec::new();
        for facet in self.facets.iter() {
            let kept = facet.filter(|v| self.base_colors_of_vertex(v).is_subset_of(allowed));
            if !kept.is_empty() {
                sims.push(kept);
            }
        }
        self.sub_complex(sims)
    }

    /// The sub-complex of simplices whose base carrier is contained in the
    /// given base simplex (the general form of
    /// [`Complex::restrict_carrier_colors`] for bases with several vertices
    /// per color).
    pub fn restrict_base_carrier(&self, base_face: &Simplex) -> Complex {
        let mut sims = Vec::new();
        for facet in self.facets.iter() {
            let kept = facet.filter(|v| self.vertex(v).base_carrier.is_face_of(base_face));
            if !kept.is_empty() {
                sims.push(kept);
            }
        }
        self.sub_complex(sims)
    }

    /// Counts simplices by dimension (index `d` holds the number of
    /// `d`-simplices), excluding the empty simplex.
    pub fn f_vector(&self) -> Vec<usize> {
        let sims = self.all_simplices();
        let maxd = sims.iter().map(Simplex::dim).max().unwrap_or(-1);
        if maxd < 0 {
            return Vec::new();
        }
        let mut counts = vec![0usize; (maxd + 1) as usize];
        for s in sims {
            counts[s.dim() as usize] += 1;
        }
        counts
    }

    /// The intern-key signature of a simplex: the ordered list of
    /// `(color, base-carrier)` pairs of its vertices.
    ///
    /// Two simplices with equal signatures are indistinguishable to any
    /// computation that only consults vertex colors and base carriers
    /// (carrier maps `Δ ∘ carrier`, candidate output sets, …). Interned
    /// subdivisions repeat identical signatures across thousands of
    /// facets, so the signature is the natural memoization key for
    /// per-facet tables (the map-search engine keys its constraint-tuple
    /// cache on it).
    pub fn simplex_signature(&self, simplex: &Simplex) -> Vec<(ProcessId, Simplex)> {
        simplex
            .vertices()
            .iter()
            .map(|&v| {
                let data = self.vertex(v);
                (data.color, data.base_carrier.clone())
            })
            .collect()
    }

    /// Looks up a subdivision vertex by its canonical key
    /// `(color, carrier-in-parent)`.
    pub fn find_vertex(&self, color: ProcessId, carrier: &Simplex) -> Option<VertexId> {
        self.structure
            .key_index
            .get(&(color, carrier.clone()))
            .copied()
    }

    /// A canonical, structure-independent description of this complex's
    /// facet set, usable to compare complexes built through different
    /// constructions over the same base. Expensive; intended for tests.
    pub fn canonical_facets(&self) -> BTreeSet<BTreeSet<CanonicalVertex>> {
        self.facets
            .iter()
            .map(|f| {
                f.vertices()
                    .iter()
                    .map(|&v| self.canonical_vertex(v))
                    .collect()
            })
            .collect()
    }

    /// The canonical description of a vertex: its color together with the
    /// canonical descriptions of its carrier's vertices (recursively down to
    /// the base, where the label is used).
    pub fn canonical_vertex(&self, v: VertexId) -> CanonicalVertex {
        let data = self.vertex(v);
        match self.parent() {
            None => CanonicalVertex {
                color: data.color,
                label: data.label,
                carrier: BTreeSet::new(),
            },
            Some(parent) => CanonicalVertex {
                color: data.color,
                label: 0,
                carrier: data
                    .carrier
                    .vertices()
                    .iter()
                    .map(|&w| parent.canonical_vertex(w))
                    .collect(),
            },
        }
    }

    /// Whether two complexes over the same base have identical simplices,
    /// compared structurally. Expensive; intended for tests and
    /// cross-validation experiments.
    pub fn same_complex(&self, other: &Complex) -> bool {
        // Compare closures, not facet lists, so differently-factored facet
        // sets of the same complex are still equal. Both inputs store
        // maximal simplices, so facet-set equality is complex equality.
        self.canonical_facets() == other.canonical_facets()
    }
}

impl PartialEq for Complex {
    /// Structural equality of the interned representations: same process
    /// count, same level chain, same vertex tables, same facet lists.
    ///
    /// Because subdivision vertices are hash-consed in first-occurrence
    /// order, two complexes built by the same construction — serially or in
    /// parallel, in any thread count — compare equal. For complexes built
    /// through *different* constructions over the same base (where interned
    /// ids may differ), use [`Complex::same_complex`].
    fn eq(&self, other: &Self) -> bool {
        structures_eq(&self.structure, &other.structure) && *self.facets == *other.facets
    }
}

impl Eq for Complex {}

/// The maximal elements of `sims`: longest first, ties in input order,
/// each kept simplex at its first occurrence.
///
/// Linear in the input up to the size of the vertex buckets: exact
/// duplicates are dropped through a hash set, and a simplex is tested for
/// being a face only against kept simplices that are strictly longer and
/// share its least-shared vertex. Kept simplices of equal length cannot
/// contain it without being equal to it, and a dropped simplex is itself a
/// face of a kept one.
fn maximal_simplices(mut sims: Vec<Simplex>) -> Vec<Simplex> {
    sims.sort_by_key(|s| std::cmp::Reverse(s.len()));
    let buckets_len = sims
        .iter()
        .filter_map(|s| s.vertices().last())
        .map(|v| v.index() + 1)
        .max()
        .unwrap_or(0);
    // For each vertex, the indices (into `sims`) of kept simplices on it.
    let mut kept_on: Vec<Vec<u32>> = vec![Vec::new(); buckets_len];
    let mut seen: HashSet<&Simplex> = HashSet::with_capacity(sims.len());
    let mut keep = vec![false; sims.len()];
    let mut any_kept = false;
    for (i, s) in sims.iter().enumerate() {
        if !seen.insert(s) {
            continue;
        }
        let covered = match s.vertices().iter().min_by_key(|v| kept_on[v.index()].len()) {
            // The empty simplex is a face of anything kept.
            None => any_kept,
            Some(v) => kept_on[v.index()].iter().any(|&m| {
                let m = &sims[m as usize];
                m.len() > s.len() && s.is_face_of(m)
            }),
        };
        if !covered {
            keep[i] = true;
            any_kept = true;
            for v in s.vertices() {
                kept_on[v.index()].push(i as u32);
            }
        }
    }
    sims.into_iter()
        .zip(keep)
        .filter_map(|(s, k)| k.then_some(s))
        .collect()
}

fn structures_eq(a: &Arc<Structure>, b: &Arc<Structure>) -> bool {
    if Arc::ptr_eq(a, b) {
        return true;
    }
    // `key_index` is derived from `vertices` (and `star_index` from the
    // facets), so vertex-table equality covers them.
    a.n == b.n
        && a.level == b.level
        && a.vertices == b.vertices
        && match (&a.parent, &b.parent) {
            (None, None) => true,
            (Some(p), Some(q)) => p == q,
            _ => false,
        }
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Complex")
            .field("n", &self.structure.n)
            .field("level", &self.structure.level)
            .field("vertices", &self.num_vertices())
            .field("facets", &self.facet_count())
            .field("dim", &self.dim())
            .finish()
    }
}

/// Structure-independent canonical description of a vertex; see
/// [`Complex::canonical_vertex`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct CanonicalVertex {
    /// Color of the vertex.
    pub color: ProcessId,
    /// Base label (only at level 0).
    pub label: u64,
    /// Canonical carrier (empty at level 0).
    pub carrier: BTreeSet<CanonicalVertex>,
}

/// A set of simplices indexable by hash, used for `S` arguments of star /
/// pure-complement computations.
#[derive(Clone, Debug, Default)]
pub struct SimplexSet {
    set: HashSet<Simplex>,
}

impl SimplexSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        SimplexSet::default()
    }

    /// Inserts a simplex; returns whether it was newly inserted.
    pub fn insert(&mut self, s: Simplex) -> bool {
        self.set.insert(s)
    }

    /// Whether the set contains `s`.
    pub fn contains(&self, s: &Simplex) -> bool {
        self.set.contains(s)
    }

    /// Number of simplices in the set.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Iterates over the simplices of the set.
    pub fn iter(&self) -> impl Iterator<Item = &Simplex> {
        self.set.iter()
    }
}

impl FromIterator<Simplex> for SimplexSet {
    fn from_iter<I: IntoIterator<Item = Simplex>>(iter: I) -> Self {
        SimplexSet {
            set: iter.into_iter().collect(),
        }
    }
}

impl Extend<Simplex> for SimplexSet {
    fn extend<I: IntoIterator<Item = Simplex>>(&mut self, iter: I) {
        self.set.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_simplex_shape() {
        let s = Complex::standard(4);
        assert_eq!(s.num_vertices(), 4);
        assert_eq!(s.facet_count(), 1);
        assert_eq!(s.dim(), 3);
        assert!(s.is_pure());
        assert!(s.is_chromatic());
        assert_eq!(s.level(), 0);
        assert!(s.parent().is_none());
    }

    #[test]
    fn colors_of_facet() {
        let s = Complex::standard(3);
        let facet = s.facets()[0].clone();
        assert_eq!(s.colors(&facet), ColorSet::full(3));
    }

    #[test]
    fn contains_simplex_checks_faces() {
        let s = Complex::standard(3);
        let facet = s.facets()[0].clone();
        for face in facet.non_empty_faces() {
            assert!(s.contains_simplex(&face));
        }
        assert!(s.contains_simplex(&Simplex::empty()));
    }

    #[test]
    fn sub_complex_prunes_non_maximal() {
        let s = Complex::standard(3);
        let facet = s.facets()[0].clone();
        let edge = Simplex::from_vertices(facet.vertices()[..2].iter().copied());
        let sub = s.sub_complex(vec![edge.clone(), facet.clone(), edge.clone()]);
        assert_eq!(sub.facet_count(), 1);
        assert_eq!(sub.facets()[0], facet);
    }

    #[test]
    fn skeleton_of_standard_simplex() {
        let s = Complex::standard(4);
        let skel1 = s.skeleton(1);
        // 1-skeleton of a tetrahedron: 6 edges.
        assert_eq!(skel1.facet_count(), 6);
        assert_eq!(skel1.dim(), 1);
        assert!(skel1.is_pure());
        let f = skel1.f_vector();
        assert_eq!(f, vec![4, 6]);
    }

    #[test]
    fn f_vector_of_standard() {
        let s = Complex::standard(3);
        assert_eq!(s.f_vector(), vec![3, 3, 1]);
    }

    #[test]
    fn pure_complement_removes_star() {
        let s = Complex::standard(3);
        // Remove everything adjacent to vertex 0: no facet survives.
        let v0 = VertexId::from_index(0);
        let pc = s.pure_complement(|sx| sx.len() == 1 && sx.contains(v0));
        assert!(pc.is_void());
    }

    #[test]
    fn labeled_base_complex() {
        // Two possible inputs for each of two processes: a 2-process
        // binary-input pseudosphere (4 vertices, 4 edges).
        let verts = vec![
            (ProcessId::new(0), 0),
            (ProcessId::new(0), 1),
            (ProcessId::new(1), 0),
            (ProcessId::new(1), 1),
        ];
        let facets = vec![vec![0, 2], vec![0, 3], vec![1, 2], vec![1, 3]];
        let c = Complex::from_labeled_vertices(2, verts, facets);
        assert_eq!(c.facet_count(), 4);
        assert!(c.is_chromatic());
        assert_eq!(c.dim(), 1);
        assert_eq!(c.vertex(VertexId::from_index(1)).label, 1);
    }

    #[test]
    #[should_panic(expected = "two vertices of color")]
    fn monochrome_facet_rejected() {
        let verts = vec![(ProcessId::new(0), 0), (ProcessId::new(0), 1)];
        let _ = Complex::from_labeled_vertices(1, verts, vec![vec![0, 1]]);
    }

    #[test]
    fn independently_built_subdivisions_compare_equal() {
        // Equality is derived from the interned tables, so two independent
        // builds of `Chr s` (fresh arenas, fresh Arcs) are `==`.
        let a = Complex::standard(3).chromatic_subdivision();
        let b = Complex::standard(3).chromatic_subdivision();
        assert_eq!(a, b);
        // And it is structural, not pointer-based: a proper sub-complex of
        // the same structure differs.
        let sub = a.sub_complex(vec![a.facets()[0].clone()]);
        assert_ne!(a, sub);
        assert_ne!(a, Complex::standard(3));
    }

    #[test]
    fn same_complex_detects_equality_and_difference() {
        let a = Complex::standard(3);
        let b = Complex::standard(3);
        assert!(a.same_complex(&b));
        let facet = a.facets()[0].clone();
        let edge = Simplex::from_vertices(facet.vertices()[..2].iter().copied());
        let sub = a.sub_complex(vec![edge]);
        assert!(!sub.same_complex(&b));
    }

    #[test]
    fn star_collects_cofaces() {
        let s = Complex::standard(3);
        let v0 = VertexId::from_index(0);
        // St({v0}, s): all simplices containing v0.
        let star = s.star(|sx| sx.len() == 1 && sx.contains(v0));
        assert_eq!(star.len(), 4, "v0, two edges, one triangle");
        for sx in &star {
            assert!(sx.contains(v0));
        }
    }

    #[test]
    fn simplex_set_operations() {
        let mut set = SimplexSet::new();
        assert!(set.is_empty());
        let s = Complex::standard(2);
        let facet = s.facets()[0].clone();
        assert!(set.insert(facet.clone()));
        assert!(!set.insert(facet.clone()), "duplicate insert is a no-op");
        assert!(set.contains(&facet));
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().count(), 1);
        let collected: SimplexSet = facet.non_empty_faces().collect();
        assert_eq!(collected.len(), 3);
    }

    #[test]
    fn restrict_base_carrier_on_labeled_base() {
        // A pseudosphere-like base with two vertices per color: restrict
        // to one input facet.
        let verts = vec![
            (ProcessId::new(0), 0),
            (ProcessId::new(0), 1),
            (ProcessId::new(1), 0),
            (ProcessId::new(1), 1),
        ];
        let base = Complex::from_labeled_vertices(
            2,
            verts,
            vec![vec![0, 2], vec![0, 3], vec![1, 2], vec![1, 3]],
        );
        let chr = base.chromatic_subdivision();
        let target = base.facets()[0].clone();
        let restricted = chr.restrict_base_carrier(&target);
        assert!(!restricted.is_void());
        for f in restricted.facets() {
            assert!(chr.carrier_in_base(f).is_face_of(&target));
        }
        // The restriction is exactly Chr of one edge: 3 facets.
        assert_eq!(restricted.facet_count(), 3);
    }

    #[test]
    fn used_vertices_of_subcomplex() {
        let chr = Complex::standard(3).chromatic_subdivision();
        let one_facet = chr.sub_complex(vec![chr.facets()[0].clone()]);
        assert_eq!(one_facet.used_vertices().len(), 3);
        assert_eq!(
            one_facet.num_vertices(),
            chr.num_vertices(),
            "table is shared"
        );
    }

    #[test]
    fn skeleton_zero_is_vertices() {
        let s = Complex::standard(3);
        let skel0 = s.skeleton(0);
        assert_eq!(skel0.facet_count(), 3);
        assert_eq!(skel0.dim(), 0);
    }

    #[test]
    fn f_vector_of_void_complex_is_empty() {
        let s = Complex::standard(2);
        let void = s.sub_complex(Vec::<Simplex>::new());
        assert!(void.f_vector().is_empty());
        assert_eq!(void.dim(), -1);
        assert!(void.is_void());
    }

    #[test]
    fn simplex_signatures_key_on_color_and_base_carrier() {
        let chr = Complex::standard(3).chromatic_subdivision();
        // The central facet (every vertex carried by the whole base facet)
        // has a signature distinct from any corner facet.
        let sigs: Vec<_> = chr
            .facets()
            .iter()
            .map(|f| chr.simplex_signature(f))
            .collect();
        assert_eq!(sigs.len(), 13);
        for (f, sig) in chr.facets().iter().zip(&sigs) {
            assert_eq!(sig.len(), f.len());
            for (&v, (color, base)) in f.vertices().iter().zip(sig) {
                assert_eq!(chr.color(v), *color);
                assert_eq!(&chr.vertex(v).base_carrier, base);
            }
        }
        // A second subdivision repeats signatures: strictly fewer unique
        // signatures than facets (the memoization win).
        let chr2 = chr.chromatic_subdivision();
        let mut unique: BTreeSet<Vec<(ProcessId, Simplex)>> = BTreeSet::new();
        for f in chr2.facets() {
            unique.insert(chr2.simplex_signature(f));
        }
        assert!(unique.len() < chr2.facet_count());
    }

    #[test]
    fn base_carrier_of_base_vertex_is_itself() {
        let s = Complex::standard(3);
        for i in 0..3 {
            let v = VertexId::from_index(i);
            assert_eq!(s.vertex(v).base_carrier, Simplex::vertex(v));
            assert_eq!(
                s.base_colors_of_vertex(v),
                ColorSet::singleton(ProcessId::new(i))
            );
        }
    }

    /// The quadratic algorithm `sub_complex` used before the vertex index:
    /// every simplex is checked against every kept one. Kept as the oracle
    /// for [`maximal_simplices`].
    fn maximal_simplices_quadratic(mut sims: Vec<Simplex>) -> Vec<Simplex> {
        sims.sort_by_key(|s| std::cmp::Reverse(s.len()));
        sims.dedup();
        let mut maximal: Vec<Simplex> = Vec::new();
        'outer: for s in sims {
            for m in &maximal {
                if s.is_face_of(m) {
                    continue 'outer;
                }
            }
            maximal.push(s);
        }
        maximal
    }

    fn simplex_of_mask(mask: u64) -> Simplex {
        Simplex::from_vertices(
            (0..8)
                .filter(|i| mask & (1 << i) != 0)
                .map(VertexId::from_index),
        )
    }

    /// A simplex list over 8 vertices from `(op, mask, pick)` steps: a
    /// fresh simplex, the empty simplex, an adjacent duplicate, a
    /// duplicate of an earlier entry, or a face of an earlier entry.
    fn simplex_list(steps: Vec<(u8, u64, usize)>) -> Vec<Simplex> {
        let mut out: Vec<Simplex> = Vec::new();
        for (op, mask, pick) in steps {
            let earlier = (!out.is_empty()).then(|| out[pick % out.len()].clone());
            let next = match (op, earlier) {
                (1, _) => Simplex::empty(),
                (2, Some(_)) => out[out.len() - 1].clone(),
                (3, Some(e)) => e,
                (4, Some(e)) => e.filter(|v| mask & (1 << v.index()) != 0),
                _ => simplex_of_mask(mask),
            };
            out.push(next);
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn maximal_simplices_matches_the_quadratic_oracle(
            steps in proptest::collection::vec((0u8..5, 0u64..256, 0usize..64), 0..48)
        ) {
            let sims = simplex_list(steps);
            proptest::prop_assert_eq!(
                maximal_simplices(sims.clone()),
                maximal_simplices_quadratic(sims)
            );
        }
    }

    #[test]
    fn sub_complex_keeps_maximal_simplices_in_oracle_order() {
        let s = Complex::standard(8);
        let sims = simplex_list(vec![
            (0, 0b0000_0011, 0),
            (1, 0, 0),
            (0, 0b0000_0111, 0),
            (2, 0, 0),
            (4, 0b0000_0101, 2),
            (0, 0b1100_0000, 0),
            (3, 0, 0),
            (0, 0b0000_0111, 0),
        ]);
        let sub = s.sub_complex(sims.clone());
        assert_eq!(sub.facets(), maximal_simplices_quadratic(sims).as_slice());
        assert_eq!(
            sub.facets(),
            &[simplex_of_mask(0b0000_0111), simplex_of_mask(0b1100_0000)]
        );
        // Only empty simplices: one empty facet survives, as before.
        let void = s.sub_complex(vec![Simplex::empty(), Simplex::empty()]);
        assert_eq!(void.facets(), &[Simplex::empty()]);
        assert!(s.sub_complex(Vec::new()).facets().is_empty());
    }
}
