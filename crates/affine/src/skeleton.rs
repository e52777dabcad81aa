//! The α-independent half of compiling `R_A`, built once per process
//! count.
//!
//! Definition 9 reads a facet `σ` of `Chr² s` only through its carrier
//! `ρ` in `Chr s`, and each 2-contention face `θ ⊆ σ` only through
//! `χ(θ)`, `dim θ` and its carrier `τ`. The agreement function enters
//! only through `CSM_α(ρ)`, `CSV_α(τ)` and `Conc_α(τ)`. A [`Def9Table`]
//! stores the first part, with every carrier replaced by a dense id of a
//! `Chr s` simplex, so compiling `R_A` for one model evaluates Definitions
//! 7 and 8 once per distinct carrier and then runs bit operations over
//! the table.
//!
//! [`chr2_skeleton`] keeps `Chr² s` and its table for the life of the
//! process, one per process count up to [`MEMO_MAX_N`], the way
//! `act_topology::osp_table` keeps ordered set partitions. Every `R_A`,
//! `R_{k-OF}`, `R_{t-res}` and recipe-built task of one process count then
//! shares one vertex structure. [`census_skeleton`] keeps the table of the
//! symmetry-quotiented census the same way, up to `n = 5`.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use act_adversary::AgreementFunction;
use act_topology::{ColorSet, Complex, Simplex};

use crate::contention::views_contend;
use crate::critical::{CriticalCandidates, CriticalSummary};
use crate::fair::CriticalSideCondition;
use crate::views::{views_of, Views};

/// The largest process count whose skeleton is kept: `Chr² s` has 5,625
/// facets at `n = 4` and 292,681 at `n = 5`.
pub(crate) const MEMO_MAX_N: usize = 4;

/// `Chr² s` for one process count and, built on first use, its
/// [`Def9Table`].
pub(crate) struct Skeleton {
    chr2: Complex,
    table: OnceLock<Def9Table>,
}

impl Skeleton {
    fn build(n: usize) -> Skeleton {
        Skeleton {
            chr2: Complex::standard(n).iterated_subdivision(2),
            table: OnceLock::new(),
        }
    }

    /// `Chr² s`.
    pub(crate) fn chr2(&self) -> &Complex {
        &self.chr2
    }

    /// Whether [`Skeleton::table`] is already built.
    pub(crate) fn has_table(&self) -> bool {
        self.table.get().is_some()
    }

    /// The Definition 9 table of every facet of `Chr² s`, in facet order.
    pub(crate) fn table(&self) -> &Def9Table {
        self.table
            .get_or_init(|| Def9Table::build(&self.chr2, self.chr2.facets()))
    }
}

/// The skeleton for `n` processes, and whether it came from the memo.
/// Above [`MEMO_MAX_N`] a fresh skeleton is built on every call.
pub(crate) fn chr2_skeleton(n: usize) -> (Arc<Skeleton>, bool) {
    static MEMO: [OnceLock<Arc<Skeleton>>; MEMO_MAX_N] = [const { OnceLock::new() }; MEMO_MAX_N];
    memoized(&MEMO, n, || Skeleton::build(n))
}

/// The α-independent half of the symmetry-quotiented `R_A` census: the
/// Definition 9 table of one representative expansion per `Chr s` facet
/// orbit, against the full `Chr s`, and each orbit's size.
pub(crate) struct CensusSkeleton {
    pub(crate) table: Def9Table,
    /// Per orbit, in table order: `(orbit size, representative facets)`.
    pub(crate) orbits: Vec<(usize, usize)>,
}

/// The census skeleton for `n` processes, kept up to `n = 5` (16 orbits
/// of 541 representative facets), built afresh above.
pub(crate) fn census_skeleton(n: usize) -> Arc<CensusSkeleton> {
    static MEMO: [OnceLock<Arc<CensusSkeleton>>; MEMO_MAX_N + 1] =
        [const { OnceLock::new() }; MEMO_MAX_N + 1];
    memoized(&MEMO, n, || {
        let chr = Complex::standard(n).chromatic_subdivision();
        let quotient = chr.chromatic_subdivision_quotiented();
        CensusSkeleton {
            table: Def9Table::build(
                quotient.representatives(),
                quotient.orbit_expansions().flat_map(|e| e.rep_facets),
            ),
            orbits: quotient
                .orbit_expansions()
                .map(|e| (e.orbit.orbit_size(), e.rep_facets.len()))
                .collect(),
        }
    })
    .0
}

/// `memo[n - 1]`, built by `build` on first use, and whether it was
/// already built; `build`'s result is not kept when `n` is out of range.
fn memoized<T>(
    memo: &'static [OnceLock<Arc<T>>],
    n: usize,
    build: impl FnOnce() -> T,
) -> (Arc<T>, bool) {
    match n.checked_sub(1).and_then(|i| memo.get(i)) {
        Some(cell) => {
            let hit = cell.get().is_some();
            (Arc::clone(cell.get_or_init(|| Arc::new(build()))), hit)
        }
        None => (Arc::new(build()), false),
    }
}

/// Definition 9 with `α` factored out, over a list of facets of a level-2
/// complex.
pub(crate) struct Def9Table {
    /// Per `Chr s` simplex id, the input of Definitions 7 and 8.
    carriers: Vec<CriticalCandidates>,
    facets: Vec<FacetRow>,
    /// The 2-contention faces of every facet, facet after facet.
    thetas: Vec<Theta>,
}

#[derive(Clone, Copy)]
struct FacetRow {
    /// The id of `ρ = carrier(σ, Chr s)`.
    rho: u32,
    /// The end of this facet's run in `thetas`; it starts where the
    /// previous facet's ends.
    thetas_end: u32,
}

/// One 2-contention face `θ`.
#[derive(Clone, Copy)]
struct Theta {
    chi: ColorSet,
    /// `|θ| = dim θ + 1`.
    len: u32,
    /// The id of `τ = carrier(θ, Chr s)`.
    tau: u32,
}

/// Dense ids for the `Chr s` simplices met as carriers.
struct CarrierIds<'a> {
    chr: &'a Complex,
    ids: HashMap<Simplex, u32>,
    candidates: Vec<CriticalCandidates>,
}

impl CarrierIds<'_> {
    fn id(&mut self, carrier: &Simplex) -> u32 {
        if let Some(&id) = self.ids.get(carrier) {
            return id;
        }
        let id = u32::try_from(self.candidates.len()).expect("fewer than 2^32 carriers");
        self.candidates
            .push(CriticalCandidates::of(self.chr, carrier));
        self.ids.insert(carrier.clone(), id);
        id
    }
}

impl Def9Table {
    /// Tabulates `facets`, simplices of the level-2 complex `level2`.
    ///
    /// # Panics
    ///
    /// Panics if `level2` has no parent level or a facet has 64 or more
    /// vertices.
    pub(crate) fn build<'a>(
        level2: &Complex,
        facets: impl IntoIterator<Item = &'a Simplex>,
    ) -> Def9Table {
        let mut carriers = CarrierIds {
            chr: level2
                .parent()
                .expect("Definition 9 reads a level-2 complex"),
            ids: HashMap::new(),
            candidates: Vec::new(),
        };
        let mut rows = Vec::new();
        let mut thetas = Vec::new();
        for sigma in facets {
            let vs = sigma.vertices();
            assert!(vs.len() < 64, "facet masks are 64-bit");
            let views: Vec<Views> = vs.iter().map(|&v| views_of(level2, v)).collect();
            let vertex_carriers: Vec<&Simplex> =
                vs.iter().map(|&v| level2.carrier_of_vertex(v)).collect();
            let vertex_carrier_ids: Vec<u32> =
                vertex_carriers.iter().map(|c| carriers.id(c)).collect();
            let mut contends = vec![0u64; vs.len()];
            // `covers[j]`: the vertices whose carrier is a face of vertex
            // `j`'s.
            let mut covers = vec![0u64; vs.len()];
            for i in 0..vs.len() {
                for j in 0..vs.len() {
                    if i != j && views_contend(views[i], views[j]) {
                        contends[i] |= 1 << j;
                    }
                    if vertex_carriers[i].is_face_of(vertex_carriers[j]) {
                        covers[j] |= 1 << i;
                    }
                }
            }
            // The carriers of one simplex's vertices are nested, so the
            // carrier of a face is its largest vertex carrier; the union
            // covers any other input.
            let mut carrier_of = |mask: u64| -> u32 {
                let largest = (0..vs.len())
                    .filter(|&i| mask & (1 << i) != 0)
                    .max_by_key(|&i| vertex_carriers[i].len())
                    .expect("a non-empty face");
                if mask & !covers[largest] == 0 {
                    return vertex_carrier_ids[largest];
                }
                let union = (0..vs.len())
                    .filter(|&i| mask & (1 << i) != 0)
                    .fold(Simplex::empty(), |acc, i| acc.union(vertex_carriers[i]));
                carriers.id(&union)
            };
            let all = (1u64 << vs.len()) - 1;
            let rho = carrier_of(all);
            for mask in 1..=all {
                let mut rest = mask;
                let mut chi = ColorSet::EMPTY;
                let mut clique = true;
                while rest != 0 {
                    let i = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    clique &= mask & !contends[i] & !(1 << i) == 0;
                    chi = chi.with(level2.color(vs[i]));
                }
                if clique {
                    thetas.push(Theta {
                        chi,
                        len: mask.count_ones(),
                        tau: carrier_of(mask),
                    });
                }
            }
            rows.push(FacetRow {
                rho,
                thetas_end: u32::try_from(thetas.len()).expect("fewer than 2^32 faces"),
            });
        }
        Def9Table {
            carriers: carriers.candidates,
            facets: rows,
            thetas,
        }
    }

    /// The 2-contention faces of each tabulated facet, in order.
    fn facet_thetas(&self) -> impl Iterator<Item = (&FacetRow, &[Theta])> {
        let mut start = 0;
        self.facets.iter().map(move |row| {
            let end = row.thetas_end as usize;
            let thetas = &self.thetas[start..end];
            start = end;
            (row, thetas)
        })
    }

    /// Whether each tabulated facet `σ` satisfies `P(θ, σ)` for every face
    /// `θ` (Definition 9), in table order.
    pub(crate) fn keep(&self, alpha: &AgreementFunction, side: CriticalSideCondition) -> Vec<bool> {
        let summaries: Vec<CriticalSummary> =
            self.carriers.iter().map(|c| c.summarize(alpha)).collect();
        self.facet_thetas()
            .map(|(row, thetas)| {
                let csm_rho = summaries[row.rho as usize].member_colors;
                thetas.iter().all(|theta| {
                    let tau = &summaries[theta.tau as usize];
                    let excused = match side {
                        CriticalSideCondition::Union => {
                            theta.chi.intersects(csm_rho) || theta.chi.intersects(tau.view_colors)
                        }
                        CriticalSideCondition::TripleIntersection => {
                            theta.chi.intersection(csm_rho).intersects(tau.view_colors)
                        }
                    };
                    // dim θ < Conc_α(τ).
                    excused || theta.len as usize <= tau.concurrency
                })
            })
            .collect()
    }

    /// The size of the largest 2-contention face of each tabulated facet,
    /// in table order.
    pub(crate) fn max_contention_len(&self) -> impl Iterator<Item = usize> + '_ {
        self.facet_thetas()
            .map(|(_, thetas)| thetas.iter().map(|t| t.len as usize).max().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::{is_contention_simplex, max_contention_dim};

    #[test]
    fn skeleton_is_built_once_per_process_count() {
        let (a, _) = chr2_skeleton(3);
        let (b, hit) = chr2_skeleton(3);
        assert!(hit, "the second lookup hits the memo");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.chr2(), &Complex::standard(3).iterated_subdivision(2));
        // Above the memo bound every call builds afresh.
        let (c, hit) = chr2_skeleton(MEMO_MAX_N + 1);
        assert!(!hit);
        assert!(!c.has_table(), "the table is built on first use only");
    }

    #[test]
    fn table_rows_match_a_direct_reading_of_definition_9() {
        let chr2 = Complex::standard(3).iterated_subdivision(2);
        let table = Def9Table::build(&chr2, chr2.facets());
        assert_eq!(table.facets.len(), chr2.facet_count());
        let mut ids: HashMap<Simplex, u32> = HashMap::new();
        for ((row, thetas), sigma) in table.facet_thetas().zip(chr2.facets()) {
            let mut carriers = vec![(chr2.carrier_in_parent(sigma), row.rho)];
            let direct: Vec<Simplex> = sigma
                .non_empty_faces()
                .filter(|theta| is_contention_simplex(&chr2, theta))
                .collect();
            assert_eq!(thetas.len(), direct.len());
            for (theta_row, theta) in thetas.iter().zip(&direct) {
                assert_eq!(theta_row.chi, chr2.colors(theta));
                assert_eq!(theta_row.len as usize, theta.len());
                carriers.push((chr2.carrier_in_parent(theta), theta_row.tau));
            }
            for (carrier, id) in carriers {
                assert_eq!(*ids.entry(carrier).or_insert(id), id);
            }
        }
        // Equal carriers share an id, and distinct ones do not.
        let distinct: std::collections::HashSet<u32> = ids.values().copied().collect();
        assert_eq!(distinct.len(), ids.len());
        for (len, sigma) in table.max_contention_len().zip(chr2.facets()) {
            assert_eq!(len as isize - 1, max_contention_dim(&chr2, sigma));
        }
    }
}
