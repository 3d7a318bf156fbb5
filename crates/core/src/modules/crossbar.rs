//! The configurable crossbar between encoded-vector buffers and SCMs
//! (Section IV-A: "a configurable crossbar switch is added to connect
//! multiple encoded vector buffers with multiple SCMs").
//!
//! Two routings correspond to the two parallelism modes:
//!
//! * **broadcast** (inter-query): one buffer holds the whole cluster and
//!   feeds every SCM the same stream; each SCM scores it for a different
//!   query.
//! * **partition** (intra-query): the cluster is striped across several
//!   buffers; each buffer feeds one group of SCMs that share a query.
//!
//! The model checks the physical constraints — every SCM driven by
//! exactly one buffer port, no port oversubscribed — and computes the
//! per-SCM delivery bandwidth each routing sustains.

/// Routing mode for one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// One buffer broadcasts the full cluster to all SCMs (inter-query).
    Broadcast,
    /// The cluster is striped across `stripes` buffer ports; each port
    /// feeds a disjoint group of `N_SCM / stripes` SCMs (intra-query).
    Partition {
        /// Number of buffer stripes.
        stripes: usize,
    },
}

/// Error for an unroutable configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteError(String);

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "crossbar routing error: {}", self.0)
    }
}

impl std::error::Error for RouteError {}

/// The crossbar: `ports` buffer read ports by `n_scm` SCM inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crossbar {
    /// Buffer read ports available per cycle.
    pub ports: usize,
    /// SCM consumers.
    pub n_scm: usize,
}

impl Crossbar {
    /// The paper-scale crossbar: one port per SCM.
    pub fn paper(n_scm: usize) -> Self {
        Self {
            ports: n_scm,
            n_scm,
        }
    }

    /// Resolves a routing into per-port SCM lists.
    ///
    /// # Errors
    ///
    /// Returns an error if the stripe count is zero, exceeds the port
    /// count, or does not divide `N_SCM`.
    pub fn route(&self, routing: Routing) -> Result<Vec<Vec<usize>>, RouteError> {
        match routing {
            Routing::Broadcast => Ok(vec![(0..self.n_scm).collect()]),
            Routing::Partition { stripes } => {
                if stripes == 0 {
                    return Err(RouteError("zero stripes".into()));
                }
                if stripes > self.ports {
                    return Err(RouteError(format!(
                        "{stripes} stripes exceed {} ports",
                        self.ports
                    )));
                }
                if !self.n_scm.is_multiple_of(stripes) {
                    return Err(RouteError(format!(
                        "{stripes} stripes do not divide {} SCMs",
                        self.n_scm
                    )));
                }
                let per = self.n_scm / stripes;
                Ok((0..stripes)
                    .map(|s| (s * per..(s + 1) * per).collect())
                    .collect())
            }
        }
    }

    /// Checks a resolved routing: every SCM driven exactly once.
    pub fn verify(&self, routes: &[Vec<usize>]) -> Result<(), RouteError> {
        let mut driven = vec![0usize; self.n_scm];
        for (port, scms) in routes.iter().enumerate() {
            if port >= self.ports {
                return Err(RouteError(format!("port {port} out of range")));
            }
            for &s in scms {
                if s >= self.n_scm {
                    return Err(RouteError(format!("SCM {s} out of range")));
                }
                driven[s] += 1;
            }
        }
        for (s, &d) in driven.iter().enumerate() {
            if d != 1 {
                return Err(RouteError(format!("SCM {s} driven {d} times")));
            }
        }
        Ok(())
    }

    /// Identifier words each SCM receives per cycle under a routing, given
    /// each buffer port supplies `port_words` per cycle. Broadcast
    /// replicates the stream (every SCM sees the full rate); partition
    /// divides the cluster, so each SCM group consumes its own stripe at
    /// the full port rate.
    pub fn words_per_scm_cycle(&self, routing: Routing, port_words: usize) -> usize {
        match routing {
            Routing::Broadcast | Routing::Partition { .. } => port_words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_feeds_every_scm_once() {
        let xb = Crossbar::paper(16);
        let routes = xb.route(Routing::Broadcast).unwrap();
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].len(), 16);
        xb.verify(&routes).unwrap();
    }

    #[test]
    fn partition_stripes_are_disjoint() {
        let xb = Crossbar::paper(16);
        for stripes in [1usize, 2, 4, 8, 16] {
            let routes = xb.route(Routing::Partition { stripes }).unwrap();
            assert_eq!(routes.len(), stripes);
            xb.verify(&routes).unwrap();
        }
    }

    #[test]
    fn invalid_stripe_counts_rejected() {
        let xb = Crossbar::paper(16);
        assert!(xb.route(Routing::Partition { stripes: 0 }).is_err());
        assert!(xb.route(Routing::Partition { stripes: 3 }).is_err());
        assert!(xb.route(Routing::Partition { stripes: 32 }).is_err());
    }

    #[test]
    fn verify_catches_double_driving() {
        let xb = Crossbar::paper(4);
        let bad = vec![vec![0, 1], vec![1, 2, 3]];
        assert!(xb.verify(&bad).is_err());
        let missing = vec![vec![0, 1], vec![2]];
        assert!(xb.verify(&missing).is_err());
    }

    #[test]
    fn delivery_rate_is_port_rate() {
        let xb = Crossbar::paper(16);
        assert_eq!(xb.words_per_scm_cycle(Routing::Broadcast, 64), 64);
        assert_eq!(
            xb.words_per_scm_cycle(Routing::Partition { stripes: 4 }, 64),
            64
        );
    }
}
