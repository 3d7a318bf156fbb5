//! Functional + metered models of ANNA's hardware modules
//! (Section III-B).
//!
//! Each module executes the real datapath work (so search results come out
//! of the same structures the hardware would use) while counting the
//! cycles and operations its silicon counterpart would spend; the
//! [`crate::accel::Anna`] facade composes them, and their cycle formulas
//! are the same ones the timing engines integrate.
//!
//! * [`cpm::Cpm`] — Cluster/Codebook Processing Module: cluster filtering
//!   (Mode 1), residual computation (Mode 2), lookup-table construction
//!   (Mode 3).
//! * [`efm::Efm`] — Encoded Vector Fetch Module: cluster metadata + code
//!   fetch, sub-byte unpacking, double-buffered segmentation.
//! * [`scm::Scm`] — Similarity Computation Module: the `N_u`-wide adder
//!   tree over LUT reads, feeding a P-heap top-k unit.
//! * [`crossbar::Crossbar`] — the configurable buffer↔SCM switch of the
//!   traffic optimization (broadcast for inter-query parallelism,
//!   partitioned stripes for intra-query).

pub mod cpm;
pub mod crossbar;
pub mod efm;
pub mod scm;

pub use cpm::Cpm;
pub use crossbar::Crossbar;
pub use efm::Efm;
pub use scm::Scm;
