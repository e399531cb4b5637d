//! Always-on service counters.
//!
//! `ed-obs` tracing is `ED_TRACE`-gated and defaults off; a service needs
//! its vital signs regardless, so these are plain process-wide atomics
//! with zero contention beyond the increments themselves. `/metrics`
//! reports both: these counters always, plus the `ed-obs` trace snapshot
//! when tracing is enabled.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! service_metrics {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Process-wide service counters.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        impl Metrics {
            /// Renders every counter as a JSON object.
            pub fn to_json(&self) -> String {
                let fields: Vec<String> = vec![
                    $(format!(
                        "\"{}\":{}",
                        stringify!($name),
                        self.$name.load(Ordering::Relaxed)
                    ),)+
                ];
                format!("{{{}}}", fields.join(","))
            }
        }
    };
}

service_metrics! {
    /// Connections accepted.
    accepted,
    /// Requests admitted to the work queue.
    queued,
    /// Requests answered 200.
    served_ok,
    /// 200 answers that came from a degraded rung (not the first clean rung).
    served_degraded,
    /// Requests refused with a typed reason (fail-closed refusals, 4xx/422).
    refused,
    /// Requests rejected at admission because the queue was full (503).
    rejected_queue_full,
    /// Requests refused at admission with an already-expired deadline.
    refused_deadline_admission,
    /// Queued requests shed because their deadline expired before a worker
    /// picked them up (503).
    shed_deadline,
    /// Handler panics converted to typed 500s.
    worker_panics,
    /// Worker threads replaced after a panic escaped the request scope.
    workers_replaced,
    /// Malformed / oversized / timed-out requests (4xx at the framing layer).
    http_errors,
    /// Warm-cache hits.
    cache_hits,
    /// Warm-cache misses (entry built).
    cache_misses,
    /// Cache entries evicted by certified invalidation.
    cache_invalidations,
    /// `/sweep` requests that started from a pooled certified seed basis.
    sweep_basis_hits,
    /// `/atlas` polls (successful or refused).
    atlas_polls,
    /// Cases whose pooled sweep seeds were evicted because the atlas
    /// quarantined a cell of the case.
    atlas_quarantine_evictions,
    /// Responses the server failed to write (client gone).
    write_failures,
}

static METRICS: Metrics = Metrics {
    accepted: AtomicU64::new(0),
    queued: AtomicU64::new(0),
    served_ok: AtomicU64::new(0),
    served_degraded: AtomicU64::new(0),
    refused: AtomicU64::new(0),
    rejected_queue_full: AtomicU64::new(0),
    refused_deadline_admission: AtomicU64::new(0),
    shed_deadline: AtomicU64::new(0),
    worker_panics: AtomicU64::new(0),
    workers_replaced: AtomicU64::new(0),
    http_errors: AtomicU64::new(0),
    cache_hits: AtomicU64::new(0),
    cache_misses: AtomicU64::new(0),
    cache_invalidations: AtomicU64::new(0),
    sweep_basis_hits: AtomicU64::new(0),
    atlas_polls: AtomicU64::new(0),
    atlas_quarantine_evictions: AtomicU64::new(0),
    write_failures: AtomicU64::new(0),
};

/// The process-wide counters.
pub fn metrics() -> &'static Metrics {
    &METRICS
}

/// Relaxed increment helper.
pub fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_contains_every_counter() {
        bump(&metrics().accepted);
        let j = metrics().to_json();
        for key in [
            "accepted",
            "queued",
            "served_ok",
            "served_degraded",
            "refused",
            "rejected_queue_full",
            "refused_deadline_admission",
            "shed_deadline",
            "worker_panics",
            "workers_replaced",
            "http_errors",
            "cache_hits",
            "cache_misses",
            "cache_invalidations",
            "sweep_basis_hits",
            "atlas_polls",
            "atlas_quarantine_evictions",
            "write_failures",
        ] {
            assert!(j.contains(&format!("\"{key}\":")), "{j}");
        }
    }
}
