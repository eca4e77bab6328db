//! Verified admission control.
//!
//! Every job is planned through the engine's staged pipeline, then the §8
//! plan-graph verifier re-derives a **provable upper bound** on the lowered
//! iteration's per-GPU peak memory. A job is admitted only when that bound —
//! not the scheduler's own optimistic accounting — fits the slice's GPU
//! budget. This is the PatrickStar critique answered with a certificate:
//! admission decisions are justified by a bound the executor can never
//! exceed, so an admitted job cannot OOM its slice no matter how its
//! iterations interleave. A job whose states cannot fit the slice under
//! any schedule is rejected before planning, by the engine's closed-form
//! capacity precheck, so an infeasible job costs no trace or plan.

use crate::job::{JobSpec, RejectReason};
use angel_core::{Engine, EngineConfig, PlanGraph};
use serde::{Deserialize, Serialize};

/// The proof attached to every admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionCertificate {
    /// Slice size the certificate is valid for.
    pub servers: usize,
    /// The verifier's provable per-GPU peak-memory upper bound (bytes).
    pub peak_bound_bytes: u64,
    /// The per-GPU budget of the slice the bound was checked against.
    pub gpu_budget_bytes: u64,
    /// Lowered tasks in the certified iteration (verification cost proxy).
    pub tasks: usize,
}

impl AdmissionCertificate {
    /// The admission predicate itself.
    pub fn fits(&self) -> bool {
        self.peak_bound_bytes <= self.gpu_budget_bytes
    }
}

/// The engine configuration a job runs under on an `servers`-server slice.
/// Slices are disjoint sets of whole servers, so each job sees a private
/// cluster of its slice's size.
pub fn slice_config(spec: &JobSpec, servers: usize) -> EngineConfig {
    EngineConfig::servers(servers).with_batch_size(spec.batch_size)
}

/// Plan `spec` onto an `servers`-server slice and certify it. On success
/// the returned [`Engine`] *is* the job's resumable session — the service
/// steps it, parks it, and splices it onto different slice sizes.
///
/// Failure modes, in checking order:
/// * [`RejectReason::Infeasible`] from the capacity precheck — the
///   closed-form check ahead of planning
///   ([`angel_core::MemoryPlan::precheck`]) proves that no schedule can fit
///   the model's states in the slice's CPU page pool, so nothing is traced
///   or planned;
/// * [`RejectReason::Infeasible`] — the planner itself cannot place the
///   model on the slice (or the verifier found the lowering unclean, which
///   would make any bound unsound);
/// * [`RejectReason::PeakBoundExceedsBudget`] — the plan exists but its
///   *certified* peak does not fit the per-GPU budget.
pub fn admit_at(
    spec: &JobSpec,
    servers: usize,
) -> Result<(Engine, AdmissionCertificate), RejectReason> {
    let config = slice_config(spec, servers);
    let engine =
        Engine::initialize(&spec.model, &config).map_err(|e| RejectReason::Infeasible {
            error: e.to_string(),
        })?;
    let (certificate, clean) = certify(&engine, servers);
    if !clean {
        return Err(RejectReason::Infeasible {
            error: "plan-graph verifier found races or lifetime violations".to_string(),
        });
    }
    if !certificate.fits() {
        return Err(RejectReason::PeakBoundExceedsBudget {
            peak_bound_bytes: certificate.peak_bound_bytes,
            gpu_budget_bytes: certificate.gpu_budget_bytes,
        });
    }
    Ok((engine, certificate))
}

/// Run the plan-graph verifier over `engine`'s lowered iteration and read
/// off the GPU-domain peak bound. Returns the certificate and whether the
/// lowering verified clean (no races, well-formed lifetimes).
pub fn certify(engine: &Engine, servers: usize) -> (AdmissionCertificate, bool) {
    let lowered = engine.lowered();
    let report = PlanGraph::from_sim(&lowered.sim).verify();
    let clean = report.is_clean();
    // An unclean report carries no peak bounds; treat the bound as
    // "unbounded" so the certificate can never admit an unverified plan.
    let mut peak = u64::MAX;
    for (dom, name) in lowered.sim.resources().mem_domains() {
        if name == "gpu-mem" {
            peak = report.peak_bounds.get(dom.0).copied().unwrap_or(u64::MAX);
        }
    }
    (
        AdmissionCertificate {
            servers,
            peak_bound_bytes: peak,
            gpu_budget_bytes: engine.config().gpu_budget(),
            tasks: lowered.sim.num_tasks(),
        },
        clean,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use angel_model::TransformerConfig;

    fn tiny() -> JobSpec {
        JobSpec::new(
            "tiny",
            TransformerConfig::gpt3_1_7b()
                .with_layers(2)
                .with_seq_len(256),
            2,
        )
    }

    #[test]
    fn tiny_job_admits_with_a_fitting_certificate() {
        let (engine, cert) = admit_at(&tiny(), 1).expect("tiny job admits");
        assert!(cert.fits());
        assert!(cert.peak_bound_bytes > 0);
        assert!(cert.tasks > 0);
        assert_eq!(cert.servers, 1);
        assert_eq!(cert.gpu_budget_bytes, engine.config().gpu_budget());
        // The certified bound dominates the *executed* peak of the lowered
        // iteration — that is exactly why it is the admission predicate.
        let lowered = engine.lowered();
        let exec = lowered.sim.run();
        let report = PlanGraph::from_sim(&lowered.sim).verify();
        assert!(report.covers(&exec));
    }

    #[test]
    fn oversized_job_is_infeasible() {
        let spec = JobSpec::new("whale", TransformerConfig::gpt3_28b().with_layers(3000), 1);
        match admit_at(&spec, 1) {
            Err(RejectReason::Infeasible { error }) => {
                assert!(!error.is_empty());
            }
            other => panic!(
                "expected Infeasible, got {other:?}",
                other = other.map(|_| ())
            ),
        }
    }
}
