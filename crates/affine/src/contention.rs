//! The 2-contention complex `Cont²` (Definition 5, Figure 4).
//!
//! Two vertices of `Chr² s` are *contending* when their `View1` and `View2`
//! are strictly ordered in opposite directions: each believes it "went
//! first" in the round the other saw more. A 2-contention simplex is one in
//! which every two vertices contend; in the corresponding run all its
//! processes would pick distinct proposals when adopting from the smallest
//! observed `View1`.

use act_topology::{Complex, Simplex, VertexId};

use crate::views::{views_of, Views};

/// Whether two vertices of a level-2 complex are contending (the two
/// clauses of Definition 5).
pub fn are_contending(complex: &Complex, v: VertexId, w: VertexId) -> bool {
    views_contend(views_of(complex, v), views_of(complex, w))
}

/// Definition 5 on two vertices' views: `View1` and `View2` strictly
/// ordered in opposite directions.
pub(crate) fn views_contend(a: Views, b: Views) -> bool {
    (a.view1.is_proper_subset_of(b.view1) && b.view2.is_proper_subset_of(a.view2))
        || (b.view1.is_proper_subset_of(a.view1) && a.view2.is_proper_subset_of(b.view2))
}

/// Whether `σ` is a 2-contention simplex: every two distinct vertices
/// contend. Vertices (dimension 0) are vacuously contention simplices; the
/// empty simplex is not considered one.
pub fn is_contention_simplex(complex: &Complex, sigma: &Simplex) -> bool {
    if sigma.is_empty() {
        return false;
    }
    let vs = sigma.vertices();
    for (i, &v) in vs.iter().enumerate() {
        for &w in &vs[i + 1..] {
            if !are_contending(complex, v, w) {
                return false;
            }
        }
    }
    true
}

/// The 2-contention complex `Cont²` of a level-2 complex: the sub-complex
/// of all 2-contention simplices (Figure 4c shows it for `n = 3`).
///
/// `Cont²` is inclusion-closed because contention is a pairwise condition;
/// the returned complex stores its maximal simplices.
pub fn contention_complex(complex: &Complex) -> Complex {
    let mut sims = Vec::new();
    for facet in complex.facets() {
        for face in facet.non_empty_faces() {
            if is_contention_simplex(complex, &face) {
                sims.push(face);
            }
        }
    }
    complex.sub_complex(sims)
}

/// The maximal dimension of a contention simplex inside `σ` (−1 if `σ` is
/// empty). Because contention is pairwise, this is the size of a maximum
/// clique of the contention graph on `σ`'s vertices, minus one.
pub fn max_contention_dim(complex: &Complex, sigma: &Simplex) -> isize {
    let vs = sigma.vertices();
    let n = vs.len();
    // Adjacency bitmasks of the contention graph (n ≤ 64 always; in
    // practice n ≤ the process count).
    let mut adj = vec![0u64; n];
    for i in 0..n {
        for j in i + 1..n {
            if are_contending(complex, vs[i], vs[j]) {
                adj[i] |= 1 << j;
                adj[j] |= 1 << i;
            }
        }
    }
    // Exhaustive max clique over ≤ 2^n subsets (n is tiny here).
    let mut best: isize = -1;
    for mask in 1u64..(1 << n) {
        let size = mask.count_ones() as isize;
        if size - 1 <= best {
            continue;
        }
        let mut ok = true;
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if (mask & !adj[i] & !(1 << i)) != 0 {
                ok = false;
                break;
            }
        }
        if ok {
            best = size - 1;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_topology::{ColorSet, Osp};

    fn chr2() -> Complex {
        Complex::standard(3).iterated_subdivision(2)
    }

    #[test]
    fn contention_is_symmetric_and_irreflexive() {
        let k = chr2();
        for facet in k.facets() {
            for &v in facet.vertices() {
                assert!(!are_contending(&k, v, v));
                for &w in facet.vertices() {
                    assert_eq!(are_contending(&k, v, w), are_contending(&k, w, v));
                }
            }
        }
    }

    #[test]
    fn figure_4a_reversed_runs_fully_contend() {
        // Round 1: {p2},{p1},{p3}; round 2: {p3},{p1},{p2} — reversed
        // order makes every pair contend (Figure 4a).
        let s = Complex::standard(3);
        let r1 = Osp::new(vec![
            ColorSet::from_indices([1]),
            ColorSet::from_indices([0]),
            ColorSet::from_indices([2]),
        ])
        .unwrap();
        let r2 = Osp::new(vec![
            ColorSet::from_indices([2]),
            ColorSet::from_indices([0]),
            ColorSet::from_indices([1]),
        ])
        .unwrap();
        let k = s.subdivide_patterned(2, move |_| vec![vec![r1.clone(), r2.clone()]]);
        let facet = &k.facets()[0];
        assert!(is_contention_simplex(&k, facet));
        assert_eq!(max_contention_dim(&k, facet), 2);
    }

    #[test]
    fn figure_4b_mixed_runs_single_contending_pair() {
        // Round 1: {p1,p2,p3}; round 2: {p2},{p3,p1} — only {p1,p2}
        // contend (Figure 4b).
        // NOTE: with a synchronous first round every View1 is equal, so no
        // pair has *strictly* ordered View1 — Figure 4b's caption uses the
        // runs r1 = {p2},{p1,p3} as the FIRST round. Re-reading: round 1 is
        // the synchronous run and round 2 the ordered one in the figure;
        // contention needs strict View1 inclusion, which fails. The figure's
        // contending pair comes from the interpretation with the ordered run
        // first; we test that interpretation.
        let s = Complex::standard(3);
        let r1 = Osp::new(vec![
            ColorSet::from_indices([1]),
            ColorSet::from_indices([2, 0]),
        ])
        .unwrap();
        let r2 = Osp::new(vec![ColorSet::full(3)]).unwrap();
        let k = s.subdivide_patterned(2, move |_| vec![vec![r1.clone(), r2.clone()]]);
        let facet = &k.facets()[0];
        // Round 1: p2 first, then {p1,p3}; round 2 synchronous: all View2
        // equal, so no strict View2 inclusion either: no contention.
        assert_eq!(max_contention_dim(&k, facet), 0);
        // The genuinely contending configuration: p1 fast in round 1 and
        // slow in round 2, p2 the opposite.
        let r1 = Osp::new(vec![
            ColorSet::from_indices([0]),
            ColorSet::from_indices([1, 2]),
        ])
        .unwrap();
        let r2 = Osp::new(vec![
            ColorSet::from_indices([1]),
            ColorSet::from_indices([0, 2]),
        ])
        .unwrap();
        let k = s.subdivide_patterned(2, move |_| vec![vec![r1.clone(), r2.clone()]]);
        let facet = &k.facets()[0];
        let vs = facet.vertices();
        let p1 = vs
            .iter()
            .copied()
            .find(|&v| k.color(v).index() == 0)
            .unwrap();
        let p2 = vs
            .iter()
            .copied()
            .find(|&v| k.color(v).index() == 1)
            .unwrap();
        let p3 = vs
            .iter()
            .copied()
            .find(|&v| k.color(v).index() == 2)
            .unwrap();
        assert!(are_contending(&k, p1, p2));
        assert!(!are_contending(&k, p1, p3));
        assert!(!are_contending(&k, p2, p3));
        assert_eq!(max_contention_dim(&k, facet), 1);
    }

    #[test]
    fn contention_complex_structure_for_3_processes() {
        // Figure 4c: compute Cont² of Chr² s. Every vertex is trivially a
        // contention simplex, so the complex covers all used vertices;
        // higher-dimensional contention simplices exist (e.g. Figure 4a's).
        let k = chr2();
        let cont = contention_complex(&k);
        assert!(!cont.is_void());
        assert!(
            cont.dim() >= 2,
            "fully reversed runs give 2-dimensional contention"
        );
        // Every maximal simplex really is a contention simplex.
        for f in cont.facets() {
            assert!(is_contention_simplex(&k, f));
        }
    }

    #[test]
    fn max_contention_dim_agrees_with_enumeration() {
        let k = chr2();
        for facet in k.facets().iter().take(40) {
            let brute = facet
                .non_empty_faces()
                .filter(|f| is_contention_simplex(&k, f))
                .map(|f| f.dim())
                .max()
                .unwrap_or(-1);
            assert_eq!(max_contention_dim(&k, facet), brute);
        }
    }

    #[test]
    fn empty_simplex_is_not_contention() {
        let k = chr2();
        assert!(!is_contention_simplex(&k, &Simplex::empty()));
        assert_eq!(max_contention_dim(&k, &Simplex::empty()), -1);
    }
}
