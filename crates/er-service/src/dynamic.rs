//! The query plane over an evolving graph.
//!
//! [`DynamicEr`] (er-index) manages an editable edge set with incrementally
//! refreshed spectral preprocessing; [`DynamicResistanceService`] puts a
//! [`ResistanceService`] in front of it with two mechanisms the static stack
//! does not need:
//!
//! * **Epoch swap.** The live service is an `Arc<ServiceEpoch>` held in a
//!   swap slot. Queries clone the `Arc` and answer on it; mutations advance
//!   a version counter, and the *next* query that finds the slot stale
//!   installs a fresh epoch. Readers pinned on the old `Arc` keep answering
//!   old-version bits; nobody blocks on a mutation burst — if the updater
//!   lock is busy, a query simply serves the previous epoch.
//! * **Sherman–Morrison carry.** When the current epoch has built INDEX
//!   state (the resident L⁺ diagonal and columns, plus any landmark
//!   distance table), each edge mutation advances that state in `O(n)` per
//!   resident vector via [`RankOneUpdate`] instead of discarding it. The
//!   next epoch is then assembled around the carried state, so mid-burst
//!   refreshes never re-run the `O(n·solves)` index build. Every K-th
//!   snapshot refresh is a full cold rebuild (see
//!   [`DynamicEr::with_refresh_interval`]) that drops the carried state:
//!   post-refresh answers are bit-identical to a cold rebuild, and drift
//!   between refreshes is bounded by the K-interval.
//!
//! Deletions whose Sherman–Morrison denominator `1 − r(u, v)` is too small
//! (bridges and near-bridges) refuse the rank-1 path: the carried state is
//! dropped and the next refresh re-solves with CG ([`cg_fallbacks`]
//! counts these).
//!
//! [`cg_fallbacks`]: DynamicResistanceService::cg_fallbacks

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::backend::{IndexBackend, LandmarkBackend};
use crate::error::ServiceError;
use crate::query::{Query, Request};
use crate::response::Response;
use crate::service::ResistanceService;
use er_core::ApproxConfig;
use er_graph::{Graph, NodeId};
use er_index::{DynamicEr, LandmarkIndex};
use er_linalg::{solve_overlay_laplacian, RankOneUpdate};

/// Deletion denominator floor for *carried-state* updates. Looser than
/// [`er_linalg::MIN_DELETE_DENOMINATOR`]: carried state is advanced through
/// many chained updates, so we bail to a CG re-solve earlier than a one-shot
/// update would need to.
const CARRIED_DELETE_FLOOR: f64 = 1e-3;

/// CG tolerance used when the update vector `w = L⁺(e_u − e_v)` has to be
/// solved fresh (endpoint columns not resident).
const UPDATE_SOLVE_TOLERANCE: f64 = 1e-8;

/// One immutable snapshot of the serving stack: the service plus the graph
/// version it was built for. Readers that clone the `Arc` keep a consistent
/// view for as long as they hold it, regardless of concurrent mutations.
pub struct ServiceEpoch {
    version: u64,
    service: ResistanceService,
}

impl ServiceEpoch {
    /// The [`DynamicResistanceService::version`] this epoch serves.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The immutable service for this epoch.
    pub fn service(&self) -> &ResistanceService {
        &self.service
    }
}

/// INDEX-tier state carried across mutations via Sherman–Morrison.
struct CarriedState {
    /// Resident L⁺ diagonal (length `n`).
    diagonal: Vec<f64>,
    /// Resident L⁺ columns, keyed by source node.
    columns: Vec<(NodeId, Vec<f64>)>,
    /// Column-cache capacity of the harvested backend.
    column_capacity: usize,
    /// Solve count the harvested backend reported (for cost accounting).
    build_solves: u64,
    /// Landmark ids and their *resistance* rows `r(landmark, v)` (squared
    /// back from the stored `√r` so [`RankOneUpdate::apply_resistance`]
    /// applies directly).
    landmarks: Option<(Vec<NodeId>, Vec<Vec<f64>>)>,
    /// Whether the state came from an exact-solve build (harvested from a
    /// live epoch) and may be re-installed into the next epoch. Seeded
    /// benchmark state (`seed_index_state`) is maintained and measured but
    /// never installed.
    exact: bool,
}

/// The single-writer side: the editable graph plus carried state and
/// counters. Guarded by `DynamicResistanceService::inner`.
struct Updater {
    dynamic: DynamicEr,
    carried: Option<CarriedState>,
    sm_updates: u64,
    cg_fallbacks: u64,
    service_refreshes: u64,
}

/// A [`ResistanceService`] over an editable graph, epoch-swapped so queries
/// never block on mutations.
///
/// All methods take `&self`: mutations serialize on an internal updater
/// lock, queries clone the current [`ServiceEpoch`] `Arc` and answer on it.
///
/// ```
/// use er_service::DynamicResistanceService;
/// use er_graph::generators;
///
/// let graph = generators::social_network_like(200, 8.0, 3).unwrap();
/// let dynamic = DynamicResistanceService::from_graph(&graph, Default::default());
/// let before = dynamic.resistance(0, 100).unwrap();
/// dynamic.insert_edge(0, 100).unwrap();
/// let after = dynamic.resistance(0, 100).unwrap();
/// assert!(after < before, "Rayleigh monotonicity");
/// ```
pub struct DynamicResistanceService {
    config: ApproxConfig,
    /// Mirror of `dynamic.version()`, readable without the updater lock.
    version: AtomicU64,
    inner: Mutex<Updater>,
    /// The swap slot. Held only long enough to clone or replace the `Arc`.
    epoch: Mutex<Option<Arc<ServiceEpoch>>>,
}

impl DynamicResistanceService {
    /// Creates a dynamic service from an initial edge list.
    pub fn new(
        num_nodes: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
        config: ApproxConfig,
    ) -> Self {
        DynamicResistanceService {
            config,
            version: AtomicU64::new(0),
            inner: Mutex::new(Updater {
                dynamic: DynamicEr::new(num_nodes, edges, config),
                carried: None,
                sm_updates: 0,
                cg_fallbacks: 0,
                service_refreshes: 0,
            }),
            epoch: Mutex::new(None),
        }
    }

    /// Creates a dynamic service seeded from an existing static graph.
    pub fn from_graph(graph: &Graph, config: ApproxConfig) -> Self {
        Self::new(graph.num_nodes(), graph.edges(), config)
    }

    /// Full cold rebuild every `interval` mutations (see
    /// [`DynamicEr::with_refresh_interval`]); intermediate refreshes are
    /// incremental.
    pub fn with_refresh_interval(self, interval: u64) -> Self {
        let DynamicResistanceService {
            config,
            version,
            inner,
            epoch,
        } = self;
        let Updater {
            dynamic,
            carried,
            sm_updates,
            cg_fallbacks,
            service_refreshes,
        } = inner.into_inner().expect("updater lock poisoned");
        DynamicResistanceService {
            config,
            version,
            inner: Mutex::new(Updater {
                dynamic: dynamic.with_refresh_interval(interval),
                carried,
                sm_updates,
                cg_fallbacks,
                service_refreshes,
            }),
            epoch,
        }
    }

    fn lock_inner(&self) -> MutexGuard<'_, Updater> {
        self.inner.lock().expect("updater lock poisoned")
    }

    fn lock_epoch(&self) -> MutexGuard<'_, Option<Arc<ServiceEpoch>>> {
        self.epoch.lock().expect("epoch slot poisoned")
    }

    /// Inserts the undirected edge `{u, v}` (see [`DynamicEr::insert_edge`]).
    pub fn insert_edge(&self, u: NodeId, v: NodeId) -> Result<bool, ServiceError> {
        self.mutate(u, v, true)
    }

    /// Removes the undirected edge `{u, v}` (see [`DynamicEr::remove_edge`]).
    pub fn remove_edge(&self, u: NodeId, v: NodeId) -> Result<bool, ServiceError> {
        self.mutate(u, v, false)
    }

    fn mutate(&self, u: NodeId, v: NodeId, insert: bool) -> Result<bool, ServiceError> {
        let mut inner = self.lock_inner();
        let n = inner.dynamic.num_nodes();
        let will_change = u < n && v < n && u != v && (insert != inner.dynamic.has_edge(u, v));
        if will_change {
            self.harvest_carried(&mut inner);
            let update = self.prepare_update(&mut inner, u, v, insert);
            let changed = if insert {
                inner.dynamic.insert_edge(u, v)?
            } else {
                inner.dynamic.remove_edge(u, v)?
            };
            debug_assert!(changed);
            self.apply_carried_update(&mut inner, update);
            self.version
                .store(inner.dynamic.version(), Ordering::Release);
            Ok(changed)
        } else {
            // No-ops and out-of-range arguments keep DynamicEr's semantics
            // (Ok(false) / Err) and touch no serving state.
            Ok(if insert {
                inner.dynamic.insert_edge(u, v)?
            } else {
                inner.dynamic.remove_edge(u, v)?
            })
        }
    }

    /// Harvests INDEX-tier state from the installed epoch, if that epoch is
    /// current (pre-mutation) and nothing is carried yet. Harvested state is
    /// exact-solve grade, so it may be re-installed into later epochs.
    fn harvest_carried(&self, inner: &mut Updater) {
        if inner.carried.is_some() {
            return;
        }
        let epoch = match self.lock_epoch().clone() {
            Some(epoch) if epoch.version() == inner.dynamic.version() => epoch,
            _ => return,
        };
        let Some(index) = epoch.service().index_backend() else {
            return;
        };
        let landmarks = epoch.service().landmark_backend().map(|backend| {
            let index = backend.index();
            let ids = index.landmarks().to_vec();
            let n = index.num_nodes();
            let rows = (0..ids.len())
                .map(|j| {
                    (0..n)
                        .map(|v| {
                            let s = index.sqrt_resistance(j, v);
                            s * s
                        })
                        .collect()
                })
                .collect();
            (ids, rows)
        });
        inner.carried = Some(CarriedState {
            diagonal: index.diagonal().to_vec(),
            columns: index.resident_columns(),
            column_capacity: index.column_capacity(),
            build_solves: index.build_solves(),
            landmarks,
            exact: true,
        });
    }

    /// Prepares the Sherman–Morrison update for the *pre-mutation* graph.
    /// Returns `None` (after dropping the carried state) when the rank-1
    /// path is unsafe: a (near-)bridge deletion, or a `w`-solve that did not
    /// converge. With nothing carried there is nothing to update.
    fn prepare_update(
        &self,
        inner: &mut Updater,
        u: NodeId,
        v: NodeId,
        insert: bool,
    ) -> Option<RankOneUpdate> {
        inner.carried.as_ref()?;
        let w = self.update_vector(inner, u, v);
        let update = match w {
            Some(w) if insert => Some(RankOneUpdate::for_insert(w, u, v)),
            Some(w) => RankOneUpdate::for_delete(w, u, v, CARRIED_DELETE_FLOOR),
            None => None,
        };
        if update.is_none() {
            // The carried state can no longer be advanced safely; drop it so
            // the next refresh re-solves from scratch.
            inner.carried = None;
            inner.cg_fallbacks += 1;
        }
        update
    }

    /// `w = L⁺(e_u − e_v)` on the current graph: a difference of resident
    /// columns when both endpoints are cached, otherwise one CG solve over
    /// the mutation overlay.
    fn update_vector(&self, inner: &Updater, u: NodeId, v: NodeId) -> Option<Vec<f64>> {
        let carried = inner.carried.as_ref()?;
        let col = |s: NodeId| {
            carried
                .columns
                .iter()
                .find(|(source, _)| *source == s)
                .map(|(_, column)| column)
        };
        if let (Some(cu), Some(cv)) = (col(u), col(v)) {
            return Some(cu.iter().zip(cv).map(|(a, b)| a - b).collect());
        }
        let n = inner.dynamic.num_nodes();
        let overlay = inner.dynamic.overlay()?;
        let mut b = vec![0.0; n];
        b[u] = 1.0;
        b[v] = -1.0;
        let (w, outcome) =
            solve_overlay_laplacian(overlay, &b, UPDATE_SOLVE_TOLERANCE, n.max(1000));
        outcome.converged.then_some(w)
    }

    /// Advances every carried resident vector through the prepared update.
    fn apply_carried_update(&self, inner: &mut Updater, update: Option<RankOneUpdate>) {
        let (Some(update), Some(carried)) = (update, inner.carried.as_mut()) else {
            return;
        };
        update.apply_diagonal(&mut carried.diagonal);
        for (_, column) in &mut carried.columns {
            update.apply_column(column);
        }
        if let Some((ids, rows)) = carried.landmarks.as_mut() {
            for (l, row) in ids.iter().zip(rows.iter_mut()) {
                for (t, r) in row.iter_mut().enumerate() {
                    *r = update.apply_resistance(*r, *l, t);
                }
            }
        }
        inner.sm_updates += 1;
    }

    /// Whether the undirected edge `{u, v}` is currently present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.lock_inner().dynamic.has_edge(u, v)
    }

    /// Number of undirected edges currently present.
    pub fn num_edges(&self) -> usize {
        self.lock_inner().dynamic.num_edges()
    }

    /// Monotone counter bumped by every successful mutation.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Snapshot refreshes the underlying [`DynamicEr`] has performed (full
    /// rebuilds plus incremental overlay refreshes).
    pub fn snapshot_rebuilds(&self) -> u64 {
        self.lock_inner().dynamic.rebuilds()
    }

    /// Snapshot refreshes that were full cold rebuilds (CSR + 120-iteration
    /// Lanczos from scratch); these reset drift and restore bit-identity.
    pub fn snapshot_full_rebuilds(&self) -> u64 {
        self.lock_inner().dynamic.full_rebuilds()
    }

    /// Snapshot refreshes that were incremental (overlay collapse +
    /// warm-started Lanczos).
    pub fn incremental_refreshes(&self) -> u64 {
        self.lock_inner().dynamic.incremental_refreshes()
    }

    /// Service epochs installed so far (each wraps one snapshot refresh in a
    /// fresh planner/cache/backend stack, re-using carried INDEX state when
    /// available).
    pub fn service_refreshes(&self) -> u64 {
        self.lock_inner().service_refreshes
    }

    /// Mutations whose resident INDEX state was advanced by a rank-1
    /// Sherman–Morrison update instead of being discarded.
    pub fn sm_updates(&self) -> u64 {
        self.lock_inner().sm_updates
    }

    /// Mutations that refused the rank-1 path (near-singular deletion or
    /// non-converged `w`-solve) and dropped the carried state, deferring to
    /// fresh CG solves at the next refresh.
    pub fn cg_fallbacks(&self) -> u64 {
        self.lock_inner().cg_fallbacks
    }

    /// The currently installed epoch, if any, without triggering a refresh.
    /// Readers may pin the returned `Arc` and keep querying a consistent
    /// (possibly stale) snapshot while mutations proceed.
    pub fn epoch(&self) -> Option<Arc<ServiceEpoch>> {
        self.lock_epoch().clone()
    }

    /// Blocking refresh: waits for the updater lock and installs an epoch
    /// for the current version (no-op when the installed epoch is current).
    pub fn refresh(&self) -> Result<Arc<ServiceEpoch>, ServiceError> {
        let mut inner = self.lock_inner();
        self.refresh_locked(&mut inner)
    }

    /// The epoch to answer on: the installed one when current; otherwise a
    /// freshly installed one if the updater lock is free, or the stale one
    /// (readers never block on a mutation burst). Blocks only when no epoch
    /// has ever been installed.
    fn current_epoch(&self) -> Result<Arc<ServiceEpoch>, ServiceError> {
        let pinned = self.lock_epoch().clone();
        if let Some(epoch) = pinned {
            if epoch.version() == self.version() {
                return Ok(epoch);
            }
            return match self.inner.try_lock() {
                Ok(mut inner) => self.refresh_locked(&mut inner),
                // Updater busy (mutation burst in flight): serve the stale
                // epoch rather than blocking the query.
                Err(_) => Ok(epoch),
            };
        }
        let mut inner = self.lock_inner();
        self.refresh_locked(&mut inner)
    }

    /// Builds and installs the epoch for `inner`'s current version. Reuses
    /// carried INDEX state for incremental refreshes; a full snapshot
    /// rebuild drops it so the new epoch is bit-identical to a cold build.
    fn refresh_locked(&self, inner: &mut Updater) -> Result<Arc<ServiceEpoch>, ServiceError> {
        let version = inner.dynamic.version();
        if let Some(epoch) = self.lock_epoch().clone() {
            if epoch.version() == version {
                return Ok(epoch);
            }
        }
        let context = inner.dynamic.context()?;
        let graph = Arc::clone(context.graph_arc());
        let mut service = ResistanceService::from_context(context, self.config);
        if inner.dynamic.last_refresh_was_full() {
            // Bit-identity contract: a full rebuild serves exactly what a
            // cold service would, so all carried state is discarded.
            inner.carried = None;
        } else if let Some(carried) = inner.carried.as_ref().filter(|c| c.exact) {
            let backend = IndexBackend::from_parts(
                graph,
                carried.diagonal.clone(),
                carried.column_capacity,
                carried.columns.clone(),
                carried.build_solves,
            );
            service = service.with_prebuilt_index(Arc::new(backend));
            if let Some((ids, rows)) = &carried.landmarks {
                let sqrt = rows
                    .iter()
                    .map(|row| row.iter().map(|&r| r.max(0.0).sqrt()).collect())
                    .collect();
                let index = LandmarkIndex::from_parts(ids.clone(), sqrt, carried.diagonal.len())?;
                service = service.with_prebuilt_landmarks(Arc::new(LandmarkBackend::new(index)));
            }
        }
        inner.service_refreshes += 1;
        let epoch = Arc::new(ServiceEpoch { version, service });
        *self.lock_epoch() = Some(Arc::clone(&epoch));
        self.version.store(version, Ordering::Release);
        Ok(epoch)
    }

    /// Submits a request against the current epoch. Never blocks on an
    /// in-flight mutation burst: if the updater is busy, the previous epoch
    /// answers.
    pub fn submit(&self, request: &Request) -> Result<Response, ServiceError> {
        self.current_epoch()?.service().submit(request)
    }

    /// One ε-approximate pair query at the configured accuracy.
    pub fn resistance(&self, s: NodeId, t: NodeId) -> Result<f64, ServiceError> {
        let accuracy = self.config.into();
        Ok(self
            .submit(&Request::new(Query::pair(s, t)).with_accuracy(accuracy))?
            .value())
    }

    /// Exact resistance on the current snapshot (CG solve), for callers that
    /// want ground truth after a mutation burst.
    pub fn resistance_exact(&self, s: NodeId, t: NodeId) -> Result<f64, ServiceError> {
        Ok(self.lock_inner().dynamic.resistance_exact(s, t)?)
    }

    /// Seeds carried INDEX-tier state directly (benchmark seam). The state
    /// must describe the *current* graph: `diagonal` is `diag(L⁺)` (length
    /// `n`) and each `(source, column)` is a centred `L⁺ e_source`. Seeded
    /// state is advanced by Sherman–Morrison on every mutation and readable
    /// through [`carried_diagonal`](Self::carried_diagonal) /
    /// [`carried_column`](Self::carried_column), but — unlike state
    /// harvested from a live epoch — it is never installed into a serving
    /// epoch, because its provenance (e.g. Hutchinson probes) may be below
    /// exact-solve grade.
    ///
    /// # Panics
    /// Panics if a vector length differs from the node count.
    pub fn seed_index_state(
        &self,
        diagonal: Vec<f64>,
        columns: Vec<(NodeId, Vec<f64>)>,
    ) -> Result<(), ServiceError> {
        let mut inner = self.lock_inner();
        // Materialize the snapshot (and its mutation overlay) so that
        // `w`-solves for non-resident endpoints have something to solve on.
        inner.dynamic.context()?;
        let n = inner.dynamic.num_nodes();
        assert_eq!(diagonal.len(), n, "seeded diagonal must have length n");
        assert!(
            columns.iter().all(|(s, c)| *s < n && c.len() == n),
            "seeded columns must be in-range and length n"
        );
        let column_capacity = columns.len().max(1);
        inner.carried = Some(CarriedState {
            diagonal,
            columns,
            column_capacity,
            build_solves: 0,
            landmarks: None,
            exact: false,
        });
        Ok(())
    }

    /// The carried L⁺ diagonal, if any state is resident (introspection for
    /// tests and benches).
    pub fn carried_diagonal(&self) -> Option<Vec<f64>> {
        self.lock_inner()
            .carried
            .as_ref()
            .map(|c| c.diagonal.clone())
    }

    /// The carried L⁺ column for `source`, if resident.
    pub fn carried_column(&self, source: NodeId) -> Option<Vec<f64>> {
        self.lock_inner().carried.as_ref().and_then(|c| {
            c.columns
                .iter()
                .find(|(s, _)| *s == source)
                .map(|(_, column)| column.clone())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;

    fn config() -> ApproxConfig {
        ApproxConfig {
            epsilon: 0.05,
            ..ApproxConfig::default()
        }
    }

    #[test]
    fn approximate_queries_track_exact_values_across_mutations() {
        let g = generators::social_network_like(300, 10.0, 7).unwrap();
        let dynamic = DynamicResistanceService::from_graph(&g, config());
        let approx = dynamic.resistance(5, 200).unwrap();
        let exact = dynamic.resistance_exact(5, 200).unwrap();
        assert!((approx - exact).abs() <= config().epsilon);
        dynamic.insert_edge(5, 200).unwrap();
        dynamic.insert_edge(5, 201).unwrap();
        let approx = dynamic.resistance(5, 200).unwrap();
        let exact = dynamic.resistance_exact(5, 200).unwrap();
        assert!((approx - exact).abs() <= config().epsilon);
        assert!(dynamic.has_edge(5, 201));
    }

    #[test]
    fn service_is_refreshed_once_per_mutation_burst() {
        let g = generators::complete(30).unwrap();
        let dynamic = DynamicResistanceService::from_graph(&g, config());
        dynamic.resistance(0, 5).unwrap();
        let first = dynamic.version();
        // Same version: the epoch (and its cache) is reused — a repeat of
        // the query is a cache hit, not a recomputation.
        let repeat = dynamic
            .submit(&Request::new(Query::pair(0, 5)).with_accuracy(config().into()))
            .unwrap();
        assert_eq!(repeat.backend_calls, 0, "served from the cache tier");
        dynamic.insert_edge(0, 9).unwrap_or(false);
        dynamic.remove_edge(2, 3).unwrap();
        assert!(dynamic.version() > first);
        // After the burst, the next query installs a new epoch and
        // recomputes.
        let fresh = dynamic
            .submit(&Request::new(Query::pair(0, 5)).with_accuracy(config().into()))
            .unwrap();
        assert_eq!(fresh.backend_calls, 1, "cache was dropped with the swap");
        assert_eq!(dynamic.service_refreshes(), 2);
    }

    #[test]
    fn mutations_change_answers_in_the_right_direction() {
        let g = generators::social_network_like(200, 8.0, 1).unwrap();
        let dynamic = DynamicResistanceService::from_graph(&g, config());
        let before = dynamic.resistance(3, 150).unwrap();
        dynamic.insert_edge(3, 150).unwrap();
        let after = dynamic.resistance(3, 150).unwrap();
        assert!(after < before + config().epsilon);
        assert!(
            after <= 1.0 + config().epsilon,
            "edge endpoints have r <= 1"
        );
    }

    #[test]
    fn pinned_epoch_keeps_answering_old_version_bits() {
        let g = generators::social_network_like(120, 7.0, 11).unwrap();
        let dynamic = DynamicResistanceService::from_graph(&g, config());
        dynamic.resistance(1, 60).unwrap();
        let pinned = dynamic.epoch().expect("epoch installed by first query");
        let old_version = pinned.version();
        let old_answer = pinned
            .service()
            .submit(&Query::pair(1, 60).into())
            .unwrap()
            .value();
        dynamic.insert_edge(1, 60).unwrap();
        dynamic.insert_edge(1, 61).unwrap();
        // The pinned epoch still answers, bit-identically, at its version.
        let replay = pinned
            .service()
            .submit(&Query::pair(1, 60).into())
            .unwrap()
            .value();
        assert_eq!(old_answer.to_bits(), replay.to_bits());
        assert_eq!(pinned.version(), old_version);
        // New admissions see the new version.
        dynamic.resistance(1, 60).unwrap();
        let fresh = dynamic.epoch().unwrap();
        assert!(fresh.version() > old_version);
    }

    #[test]
    fn seeded_state_is_advanced_but_never_installed() {
        let g = generators::social_network_like(80, 6.0, 5).unwrap();
        let dynamic = DynamicResistanceService::from_graph(&g, config());
        let n = g.num_nodes();
        // Seed a deliberately wrong diagonal: if it were ever installed,
        // INDEX answers would be garbage. It must still be SM-maintained.
        dynamic.seed_index_state(vec![1.0; n], Vec::new()).unwrap();
        let before = dynamic.carried_diagonal().unwrap();
        dynamic.insert_edge(0, 40).unwrap();
        let after = dynamic.carried_diagonal().unwrap();
        assert_ne!(before, after, "diagonal advanced by Sherman–Morrison");
        assert_eq!(dynamic.sm_updates(), 1);
        // Queries still answer correctly — the seeded state was not
        // installed into the epoch.
        let approx = dynamic.resistance(0, 40).unwrap();
        let exact = dynamic.resistance_exact(0, 40).unwrap();
        assert!((approx - exact).abs() <= config().epsilon);
    }
}
