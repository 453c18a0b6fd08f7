//! One probe per segment-driver residency transition.
//!
//! Every §4 state change the driver counts, audits or logs is one
//! [`OsProbe`], reported once through [`SegmentDriver::probe`], which
//! matches it once and gives each recorder its one job: `OsStats` counts
//! (always), the invariant auditor mirrors the residency machine (when
//! attached), and the span log records (when attached). Residency
//! episodes (remap request → loaded, eviction → unloaded, swap-in) become
//! spans on the `os.seg` track; faults, frees and pageouts become
//! markers.

use super::SegmentDriver;
use vnet_nic::EpId;
use vnet_sim::telemetry::if_attached;
use vnet_sim::{EpPhase, SimDuration, SimTime};

/// Perfetto track for segment-driver residency transitions.
const TRACK_SEG: &str = "os.seg";

/// Why an endpoint is being unloaded from its NI frame.
pub(super) enum UnloadCause {
    /// Migrating to another host.
    Migrating,
    /// Its process freed it.
    Freed,
    /// Evicted by the remap daemon to make room for this endpoint.
    EvictedFor(EpId),
}

/// One segment-driver transition (see the module docs).
pub(super) enum OsProbe {
    /// An endpoint was allocated, parked on host.
    Created { ep: EpId },
    /// A write to a non-resident endpoint faulted (`paged_out`: it was on
    /// disk).
    WriteFault { ep: EpId, paged_out: bool },
    /// A message arrived for a non-resident endpoint (proxy fault).
    ProxyFault { ep: EpId },
    /// The endpoint's first pending remap request: its load episode
    /// begins.
    RemapRequested { ep: EpId },
    /// The daemon handed the endpoint's image to the NIC.
    Load { ep: EpId },
    /// The NIC finished loading the endpoint, which moves to `phase`
    /// (resident, or straight back to unloading when it was freed or
    /// started migrating meanwhile). `remap` is the request-to-loaded
    /// latency.
    Loaded { ep: EpId, phase: Option<EpPhase>, remap: Option<SimDuration> },
    /// The driver told the NIC to unload the endpoint.
    Unload { ep: EpId, cause: UnloadCause },
    /// The NIC returned the endpoint's image; `to_host` when it is parked
    /// on host rather than freed.
    Unloaded { ep: EpId, to_host: bool },
    /// The daemon started swapping the endpoint in from disk.
    PagingIn { ep: EpId },
    /// A swap-in finished; `to_host` when the endpoint was still waiting
    /// for it.
    PagedIn { ep: EpId, to_host: bool },
    /// Memory pressure moved a parked endpoint to swap.
    PageOut { ep: EpId },
    /// A migration hold began on the endpoint.
    MigrateOut { ep: EpId },
    /// The migration hold was lifted for the lame-duck drain.
    HoldLifted { ep: EpId },
    /// A send still queued in a discarded image was aborted.
    SendAborted { uid: u64 },
    /// The endpoint's record is gone (`why`: its state at the free).
    Freed { ep: EpId, why: &'static str },
    /// Threads woken by residency transitions.
    ResidencyWakes(u64),
    /// Threads woken by endpoint events.
    EventWakes(u64),
}

impl SegmentDriver {
    /// Report one residency transition to every recorder: the one path
    /// each counted, audited or logged transition takes. Inlined so that
    /// every call site, which passes one literal variant, keeps only that
    /// arm.
    #[inline(always)]
    pub(super) fn probe(&mut self, now: SimTime, p: OsProbe) {
        let (h, stats) = (self.host_idx, &mut self.stats);
        let (auditor, log) = (self.auditor.as_ref(), self.tel.as_ref());
        let phase = |ep: EpId, to| if_attached(auditor, |a| a.os_transition(now, h, ep.0, to));
        let mark = |name, detail: &dyn Fn() -> String| {
            if_attached(log, |t| t.instant(now, h, TRACK_SEG, name, detail()));
        };
        // An endpoint's residency episode of `kind`: at most one open.
        let open = |ep: EpId, kind, name, detail: &dyn Fn() -> String| {
            let key = (h, kind, u64::from(ep.0));
            if_attached(log, |t| t.open_episode(now, key, TRACK_SEG, name, detail));
        };
        let close = |ep: EpId, kind| {
            if_attached(log, |t| t.close_episode(now, (h, kind, u64::from(ep.0))));
        };
        match p {
            OsProbe::Created { ep } => if_attached(auditor, |a| a.os_created(now, h, ep.0)),
            OsProbe::WriteFault { ep, paged_out } => {
                stats.write_faults.inc();
                let note = if paged_out { " (paged out)" } else { "" };
                mark("write_fault", &|| format!("ep={}{note}", ep.0));
            }
            OsProbe::ProxyFault { ep } => {
                stats.proxy_faults.inc();
                mark("proxy_fault", &|| format!("ep={}", ep.0));
            }
            OsProbe::RemapRequested { ep } => {
                // The full remap episode: request → resident.
                open(ep, "load", "ep_load", &|| format!("ep={}", ep.0));
            }
            OsProbe::Load { ep } => phase(ep, EpPhase::Loading),
            OsProbe::Loaded { ep, phase: to, remap } => {
                stats.loads.inc();
                if let Some(took) = remap {
                    stats.remap_latency_us.record(took.as_micros_f64());
                }
                if let Some(to) = to {
                    phase(ep, to);
                }
                close(ep, "load");
            }
            OsProbe::Unload { ep, cause } => {
                phase(ep, EpPhase::Unloading);
                open(ep, "unload", "ep_unload", &|| match cause {
                    UnloadCause::Migrating => "migrating".into(),
                    UnloadCause::Freed => "freed".into(),
                    UnloadCause::EvictedFor(to) => format!("evicted for ep={}", to.0),
                });
            }
            OsProbe::Unloaded { ep, to_host } => {
                stats.unloads.inc();
                if to_host {
                    phase(ep, EpPhase::Host);
                }
                close(ep, "unload");
            }
            OsProbe::PagingIn { ep } => {
                phase(ep, EpPhase::PagingIn);
                open(ep, "page_in", "page_in", &String::new);
            }
            OsProbe::PagedIn { ep, to_host } => {
                stats.page_ins.inc();
                if to_host {
                    phase(ep, EpPhase::Host);
                }
                close(ep, "page_in");
            }
            OsProbe::PageOut { ep } => {
                stats.page_outs.inc();
                phase(ep, EpPhase::Disk);
                mark("page_out", &|| format!("ep={} to swap", ep.0));
            }
            OsProbe::MigrateOut { ep } => {
                close(ep, "load");
                mark("migrate_out", &|| format!("ep={}", ep.0));
            }
            OsProbe::HoldLifted { ep } => {
                mark("hold_lifted", &|| format!("ep={} lame-duck drain", ep.0));
            }
            OsProbe::SendAborted { uid } => {
                if_attached(auditor, |a| a.on_send_aborted(now, h, uid));
            }
            OsProbe::Freed { ep, why } => {
                if_attached(auditor, |a| a.os_destroyed(now, h, ep.0));
                mark("ep_freed", &|| format!("ep={} {why}", ep.0));
            }
            OsProbe::ResidencyWakes(n) => stats.residency_wakes.add(n),
            OsProbe::EventWakes(n) => stats.event_wakes.add(n),
        }
    }
}
