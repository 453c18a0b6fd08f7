//! Workloads over virtual networks.
//!
//! Everything the paper's evaluation (§6) runs, rebuilt on the `vnet-core`
//! public API:
//!
//! * [`logp`] — the LogP microbenchmark of Figure 3 (o_s, o_r, L, g for
//!   virtual-network Active Messages vs the GAM baseline).
//! * [`bandwidth`] — the bulk-transfer sweep of Figure 4 plus the
//!   round-trip-time linear fit of §6.1.
//! * [`bsp`] — a superstep-style parallel programming layer on Active
//!   Messages (the stand-in for the paper's MPICH port): credit-aware
//!   sends, spin-block waiting (implicit co-scheduling), per-rank timing.
//! * [`npb`] — NAS Parallel Benchmark communication skeletons (Figure 5)
//!   with analytic SP-2 / Origin 2000 machine models for the comparison
//!   curves.
//! * [`linpack`] — the blocked-LU Linpack skeleton behind the §6.2
//!   Top-500 entry.
//! * [`clientserver`] — the §6.4 contention workloads of Figures 6 and 7
//!   (OneVN / single-threaded / multi-threaded servers × 8 / 96 frames).
//! * [`timeshare`] — the §6.3 time-shared parallel application workloads.
//! * [`collectives`] — schedule builders for broadcast, allreduce,
//!   all-to-all, and barriers, shared by the NPB and Linpack skeletons.
//! * [`onesided`], [`split_c`] — the paper's Split-C user community:
//!   one-sided put/get and a global-address-space layer, over the
//!   unmodified endpoint API.
//! * [`via`] — the §7 Virtual Interface Architecture resource model.

#![warn(missing_docs)]

pub mod bandwidth;
pub mod bsp;
pub mod clientserver;
pub mod collectives;
pub mod linpack;
pub mod logp;
pub mod npb;
pub mod onesided;
pub mod split_c;
pub mod timeshare;
pub mod via;
