//! Endpoint logic for the work endpoints (`/dispatch`, `/sweep`,
//! `/certify`, `/safety-audit`).
//!
//! Every function here upholds one contract: **no silent numbers.** A
//! response is either a `200` whose dispatch passed the independent
//! [`SafetyGate`] (and, on `/certify`, carries a passing certificate), or
//! a refusal with a machine-readable `reason` — never a bare answer whose
//! provenance the client cannot check. Handler panics are the caller's
//! (worker's) problem by design: they are caught per request and mapped
//! to a typed 500.

use crate::cache::{CaseEntry, WarmCache};
use crate::http::Request;
use crate::json::{self, num_array, Json};
use crate::metrics::{bump, metrics};
use ed_core::attack::{optimal_attack, AttackConfig};
use ed_core::dispatch::{DcOpf, Degradation, Dispatch, SafetyGate, SafetyReport};
use ed_core::pool::{scenario_fingerprint, PoolEntry, SolutionPool};
use ed_core::{CoreError, SolveBudget};
use ed_obs::{escape, num};
use ed_optim::Trust;
use ed_powerflow::{network_fingerprint, LineId};
use std::sync::Arc;
use std::time::Instant;

/// Server-side configuration shared by every handler.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, `host:port` (port 0 lets the OS pick).
    pub addr: String,
    /// Worker threads consuming the queue.
    pub workers: usize,
    /// Bounded queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Deadline applied when a request carries no `X-Deadline-Ms`.
    pub default_deadline_ms: u64,
    /// Whether chaos hooks (`"chaos"` body field, fault seeds) are
    /// honored. Off by default; the soak harness turns it on.
    pub allow_chaos: bool,
    /// Path to an `ed-atlas` journal. When set, `GET /atlas` reports the
    /// sweep's recovery state and evicts warm sweep bases for any case
    /// the atlas has quarantined; when unset, `/atlas` is a typed
    /// refusal.
    pub atlas_journal: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: ed_par::thread_count().max(2),
            queue_capacity: 32,
            default_deadline_ms: 2_000,
            allow_chaos: false,
            atlas_journal: None,
        }
    }
}

/// Shared application state.
pub struct AppState {
    /// Warm per-case cache.
    pub cache: WarmCache,
    /// Configuration.
    pub cfg: ServerConfig,
}

/// A handler's answer, to be framed by the worker.
#[derive(Debug)]
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// JSON body.
    pub body: String,
    /// `Retry-After` seconds for backpressure/shedding responses.
    pub retry_after: Option<u32>,
    /// Chaos marker: after writing this response the worker must panic
    /// outside the per-request catch, exercising thread replacement.
    pub poison_worker: bool,
}

impl Response {
    /// A 200 with the given JSON body.
    pub fn ok(body: String) -> Response {
        Response { status: 200, body, retry_after: None, poison_worker: false }
    }

    /// A typed refusal: the fail-closed "no" with a machine-readable
    /// reason.
    pub fn refusal(status: u16, reason: &str, detail: &str) -> Response {
        bump(&metrics().refused);
        Response {
            status,
            body: format!(
                "{{\"status\":\"refused\",\"reason\":\"{}\",\"detail\":\"{}\"}}",
                escape(reason),
                escape(detail)
            ),
            retry_after: None,
            poison_worker: false,
        }
    }
}

/// `GET /atlas`: reports the configured atlas journal's recovery state
/// and couples the sweep's quarantine verdicts back into the warm cache —
/// any warm case the atlas quarantined has its pooled sweep seeds
/// evicted (narrowly: factors and last-known-good stay, both being
/// independently audited). Answered inline by the acceptor so it stays
/// responsive under work-queue saturation, like the other control
/// endpoints.
pub fn handle_atlas(state: &AppState) -> Response {
    bump(&metrics().atlas_polls);
    let Some(path) = state.cfg.atlas_journal.as_deref() else {
        return Response::refusal(
            404,
            "atlas_not_configured",
            "start ed-serve with --atlas-journal PATH to couple a sweep journal",
        );
    };
    let scan = match ed_atlas::scan(std::path::Path::new(path)) {
        Ok(s) => s,
        Err(e) => {
            return Response::refusal(
                503,
                "atlas_journal_unreadable",
                &format!("cannot scan '{path}': {e}"),
            );
        }
    };
    let mut evicted: Vec<String> = Vec::new();
    for case in scan.quarantined_cases() {
        // A cold case has no pooled seeds: invalidating an entry drops
        // them with it.
        let network = state.cache.warm(&case).map(|e| network_fingerprint(&e.net));
        if network.is_some_and(|n| SolutionPool::global().invalidate_network(n) > 0) {
            bump(&metrics().atlas_quarantine_evictions);
            evicted.push(case);
        }
    }
    let quarantined = scan.quarantined_cases();
    let join = |names: &[String]| {
        names.iter().map(|c| format!("\"{}\"", escape(c))).collect::<Vec<_>>().join(",")
    };
    Response::ok(format!(
        "{{\"status\":\"ok\",\"journal\":\"{}\",\"spec_fingerprint\":{},\"cells\":{},\
         \"completed\":{},\"in_flight\":{},\"torn_lines\":{},\"quarantine_events\":{},\
         \"quarantined_cases\":[{}],\"evicted_bases\":[{}]}}",
        escape(path),
        match &scan.fingerprint {
            Some(f) => format!("\"{}\"", escape(f)),
            None => "null".to_string(),
        },
        scan.cells.map_or("null".to_string(), |c| c.to_string()),
        scan.completed(),
        scan.in_flight(),
        scan.torn_lines,
        scan.quarantines.len(),
        join(&quarantined),
        join(&evicted),
    ))
}

/// Routes one admitted work request. `deadline` is the absolute instant
/// fixed at admission; handlers propagate it into every solve budget.
pub fn handle_work(state: &AppState, req: &Request, deadline: Instant) -> Response {
    if req.method != "POST" {
        return Response::refusal(405, "method_not_allowed", "work endpoints are POST");
    }
    let body = match req.body_str().map(json::parse) {
        Some(Ok(v)) => v,
        Some(Err(e)) => return Response::refusal(400, "bad_request", &e.to_string()),
        None => return Response::refusal(400, "bad_request", "body is not UTF-8"),
    };

    // Chaos hooks are explicit, opt-in, and refused loudly when disabled —
    // a production deployment cannot be made to panic by a request field.
    if let Some(mode) = body.get("chaos").and_then(Json::as_str) {
        if !state.cfg.allow_chaos {
            return Response::refusal(400, "chaos_disabled", "server started without --chaos");
        }
        match mode {
            "panic" => panic!("chaos: injected handler panic"),
            // Deterministic slow request: holds a worker for 300ms (or
            // until the deadline, whichever is sooner). The backpressure
            // and drain tests are built on this.
            "stall" => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                std::thread::sleep(remaining.min(std::time::Duration::from_millis(300)));
                return Response::ok("{\"status\":\"ok\",\"chaos\":\"stall\"}".to_string());
            }
            "kill_worker" => {
                return Response {
                    status: 200,
                    body: "{\"status\":\"ok\",\"chaos\":\"kill_worker\"}".to_string(),
                    retry_after: None,
                    poison_worker: true,
                }
            }
            other => {
                return Response::refusal(400, "bad_request", &format!("unknown chaos mode '{other}'"))
            }
        }
    }

    match req.path.as_str() {
        "/dispatch" => dispatch(state, &body, deadline),
        "/certify" => certify(state, &body, deadline),
        "/sweep" => sweep(state, &body, deadline),
        "/safety-audit" => safety_audit(state, &body),
        other => Response::refusal(404, "not_found", &format!("no such endpoint '{other}'")),
    }
}

/// Case entry plus the request's effective demand and ratings vectors.
type CaseInputs = (Arc<CaseEntry>, Vec<f64>, Vec<f64>);

/// Resolves the case entry plus effective demand/ratings from a body.
fn case_inputs(state: &AppState, body: &Json) -> Result<CaseInputs, Response> {
    let case = body
        .get("case")
        .and_then(Json::as_str)
        .ok_or_else(|| Response::refusal(400, "bad_request", "missing string field 'case'"))?;
    let entry = state
        .cache
        .entry(case)
        .map_err(|e| Response::refusal(400, "unknown_case", &e))?;
    let demand = match body.get("demand_mw") {
        Some(v) => v
            .as_f64_array()
            .ok_or_else(|| Response::refusal(400, "bad_request", "'demand_mw' must be a number array"))?,
        None => entry.net.demand_vector_mw(),
    };
    let ratings = match body.get("ratings_mw") {
        Some(v) => v
            .as_f64_array()
            .ok_or_else(|| Response::refusal(400, "bad_request", "'ratings_mw' must be a number array"))?,
        None => entry.net.static_ratings_mva(),
    };
    Ok((entry, demand, ratings))
}

/// The independent gate over the case's network, its factors taken from
/// the process-wide factor pool. Nothing is audited, and so nothing is
/// served, when `B_red` cannot be factored.
fn safety_gate(entry: &CaseEntry) -> Result<SafetyGate<'_>, Response> {
    SafetyGate::new(&entry.net).map_err(|e| {
        Response::refusal(422, "unaudited", &format!("the safety gate cannot factor this case: {e}"))
    })
}

fn core_error_refusal(e: &CoreError) -> Response {
    match e {
        CoreError::DispatchInfeasible => {
            Response::refusal(422, "infeasible", "demand cannot be served within limits")
        }
        CoreError::InvalidInput { what } => Response::refusal(422, "invalid_input", what),
        other => Response::refusal(422, "solver_error", &other.to_string()),
    }
}

fn degradation_json(d: &Degradation) -> String {
    format!(
        "{{\"rung\":\"{}\",\"reason\":\"{}\"}}",
        escape(&d.rung.to_string()),
        escape(&format!("{:?}", d.reason))
    )
}

fn safety_json(r: &SafetyReport) -> String {
    let violations: Vec<String> = r
        .violations
        .iter()
        .map(|v| format!("\"{}\"", escape(&format!("{v:?}"))))
        .collect();
    format!(
        "{{\"passed\":{},\"max_line_loading_pct\":{},\"checked_lines\":{},\"violations\":[{}]}}",
        r.passed(),
        num(r.max_line_loading_pct),
        r.checked_lines,
        violations.join(",")
    )
}

/// `POST /dispatch` — the resilient ladder with the gate enforced on the
/// way out.
fn dispatch(state: &AppState, body: &Json, deadline: Instant) -> Response {
    let (entry, demand, ratings) = match case_inputs(state, body) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let budget = SolveBudget::with_deadline_at(deadline);
    let result = {
        let mut dispatcher = entry
            .dispatcher
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        dispatcher.dispatch(&entry.net, &demand, &ratings, &budget)
    };
    let rd = match result {
        Ok(rd) => rd,
        Err(e) => return core_error_refusal(&e),
    };

    // --- Fail-closed exit checks. ---
    let safety = match &rd.safety {
        // No audit ran (inputs failed sanitization, stale LKG returned):
        // an unaudited set-point is not served over this API.
        None => return Response::refusal(422, "unaudited", "no safety audit ran for this dispatch"),
        Some(s) => s,
    };
    if !safety.passed() {
        return Response::refusal(
            422,
            "safety_gate",
            &format!("dispatch failed the independent audit: {}", safety_json(safety)),
        );
    }
    if rd.dispatch.p_mw.iter().any(|p| !p.is_finite()) {
        return Response::refusal(500, "non_finite", "dispatch contains non-finite generation");
    }

    let degradations: Vec<String> = rd.degradations.iter().map(degradation_json).collect();
    if rd.is_clean() {
        bump(&metrics().served_ok);
    } else {
        bump(&metrics().served_degraded);
    }
    Response::ok(format!(
        "{{\"status\":\"ok\",\"rung\":\"{}\",\"degraded\":{},\"degradations\":[{}],\"p_mw\":{},\"flows_mw\":{},\"cost\":{},\"lmp\":{},\"safety\":{}}}",
        escape(&rd.rung.to_string()),
        !rd.is_clean(),
        degradations.join(","),
        num_array(&rd.dispatch.p_mw),
        num_array(&rd.dispatch.flows_mw),
        num(rd.dispatch.cost),
        num_array(&rd.dispatch.lmp),
        safety_json(safety),
    ))
}

/// `POST /certify` — certified dispatch; an uncertified answer refuses
/// *and* evicts the warm entry (certified invalidation).
fn certify(state: &AppState, body: &Json, deadline: Instant) -> Response {
    let (entry, demand, ratings) = match case_inputs(state, body) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let fault = match body.get("inject_basis_fault") {
        None => None,
        Some(v) => {
            if !state.cfg.allow_chaos {
                return Response::refusal(400, "chaos_disabled", "fault injection needs --chaos");
            }
            match v.as_u64() {
                Some(seed) => Some(seed),
                None => {
                    return Response::refusal(
                        400,
                        "bad_request",
                        "'inject_basis_fault' must be a non-negative integer",
                    )
                }
            }
        }
    };
    let budget = SolveBudget::with_deadline_at(deadline);
    let out = match DcOpf::new(&entry.net)
        .demand(&demand)
        .ratings(&ratings)
        .solve_certified_with(&budget, fault)
    {
        Ok(out) => out,
        Err(e) => return core_error_refusal(&e),
    };

    let case = body.get("case").and_then(Json::as_str).unwrap_or_default();
    let repairs: Vec<String> = out
        .repairs
        .iter()
        .map(|r| {
            format!(
                "{{\"backend\":\"{}\",\"certified\":{}}}",
                escape(&r.backend),
                r.certificate.as_ref().is_some_and(|c| c.passed())
            )
        })
        .collect();
    let cert_status = out
        .certificate
        .as_ref()
        .map(|c| format!("{:?}", c.status))
        .unwrap_or_else(|| "None".to_string());

    let (trust_label, dispatch) = match (&out.trust, out.dispatch) {
        (Trust::Certified, Some(d)) => ("certified".to_string(), d),
        (Trust::Repaired { backend }, Some(d)) => (format!("repaired:{backend}"), d),
        (trust, _) => {
            // Fail closed: no certificate, no number — and the warm state
            // that produced it is no longer trusted either.
            state.cache.invalidate(case);
            let reason = if matches!(trust, Trust::Partial) { "budget_partial" } else { "uncertified" };
            return Response::refusal(
                422,
                reason,
                &format!(
                    "no rung earned a certificate (status {cert_status}, {} repairs attempted); warm cache evicted",
                    out.repairs.len()
                ),
            );
        }
    };

    // Certification checks the answer against the *model*; the gate
    // checks it against the *physics*. Both must pass before it leaves.
    let gate = match safety_gate(&entry) {
        Ok(g) => g,
        Err(r) => return r,
    };
    let safety = gate.check(&demand, &ratings, &dispatch);
    if !safety.passed() {
        state.cache.invalidate(case);
        return Response::refusal(
            422,
            "safety_gate",
            &format!("certified dispatch failed the independent audit: {}", safety_json(&safety)),
        );
    }

    bump(&metrics().served_ok);
    Response::ok(format!(
        "{{\"status\":\"ok\",\"trust\":\"{}\",\"cert_status\":\"{}\",\"repairs\":[{}],\"p_mw\":{},\"cost\":{},\"safety\":{}}}",
        escape(&trust_label),
        escape(&cert_status),
        repairs.join(","),
        num_array(&dispatch.p_mw),
        num(dispatch.cost),
        safety_json(&safety),
    ))
}

/// `POST /sweep` — Algorithm 1 attack assessment, started from the pooled
/// seed of a repeat scenario; a sweep with any uncertified subproblem
/// refuses and evicts the warm entry.
fn sweep(state: &AppState, body: &Json, deadline: Instant) -> Response {
    let (entry, demand, _ratings) = match case_inputs(state, body) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let case = body.get("case").and_then(Json::as_str).unwrap_or_default();

    let dlr_ids: Vec<LineId> = match body.get("dlr_lines") {
        Some(v) => match v.as_usize_array() {
            Some(ids) => ids.into_iter().map(LineId).collect(),
            None => {
                return Response::refusal(400, "bad_request", "'dlr_lines' must be an index array")
            }
        },
        None if case == "three_bus" => ed_cases::three_bus::dlr_lines(),
        None => {
            return Response::refusal(
                400,
                "missing_dlr_lines",
                "'dlr_lines' is required for cases without a canonical DLR set",
            )
        }
    };
    let (lo, hi) = match body.get("bounds") {
        Some(v) => match v.as_f64_array().as_deref() {
            Some([lo, hi]) => (*lo, *hi),
            _ => return Response::refusal(400, "bad_request", "'bounds' must be [lo, hi]"),
        },
        None => (100.0, 200.0),
    };
    let u_d: Vec<f64> = match body.get("true_ratings") {
        Some(v) => match v.as_f64_array() {
            Some(u) => u,
            None => {
                return Response::refusal(400, "bad_request", "'true_ratings' must be a number array")
            }
        },
        // Default truth: the static ratings of the attacked lines.
        None => {
            let statics = entry.net.static_ratings_mva();
            match dlr_ids.iter().map(|l| statics.get(l.0).copied()).collect() {
                Some(u) => u,
                None => {
                    return Response::refusal(400, "bad_request", "'dlr_lines' index out of range")
                }
            }
        }
    };

    let n = dlr_ids.len();
    let mut config = AttackConfig::new(dlr_ids);
    config.u_min = vec![lo; n];
    config.u_max = vec![hi; n];
    config.u_d = u_d;
    config.demand_mw = Some(demand);
    config.options.budget = SolveBudget::with_deadline_at(deadline);
    if let Some(nodes) = body.get("node_limit").and_then(Json::as_u64) {
        config.options.node_limit = (nodes as usize).clamp(1, 1_000_000);
    }

    // Warm-start a repeat sweep of the same scenario from the pooled seed
    // of its last fully-certified run. The attack layer checks the seed
    // once and certifies every answer, so a stale entry can cost
    // iterations but never change a result.
    let pool = SolutionPool::global();
    let scenario = scenario_fingerprint(&entry.net, &config);
    config.options.warm_basis = pool.lookup(scenario).map(|e| e.basis);
    if config.options.warm_basis.is_some() {
        bump(&metrics().sweep_basis_hits);
    }

    let res = match optimal_attack(&entry.net, &config) {
        Ok(r) => r,
        Err(e) => return core_error_refusal(&e),
    };

    if res.sweep.uncertified > 0 {
        state.cache.invalidate(case);
        return Response::refusal(
            422,
            "uncertified_sweep",
            &format!(
                "{} of {} subproblems failed certification; assessment withheld, warm cache evicted",
                res.sweep.uncertified,
                res.subproblems.len()
            ),
        );
    }

    // Only a fully-certified sweep may donate its seed basis to future
    // requests — an uncertified one already refused above, and a sweep
    // with no certificates (certify off) is not trusted warm state.
    if let Some(basis) = res.seed_basis.clone() {
        if res.sweep.certified + res.sweep.cert_repaired == res.subproblems.len() {
            let network = network_fingerprint(&entry.net);
            pool.store(scenario, PoolEntry { basis, network });
        }
    }

    let target = match res.target {
        Some((line, dir)) => format!("{{\"line\":{},\"direction\":{}}}", line.0, dir),
        None => "null".to_string(),
    };
    bump(&metrics().served_ok);
    Response::ok(format!(
        "{{\"status\":\"ok\",\"ucap_pct\":{},\"overload_mw\":{},\"ua_mw\":{},\"target\":{},\"subproblems\":{},\"sweep\":{{\"certified\":{},\"cert_repaired\":{},\"uncertified\":{},\"heuristic_floor\":{},\"basis_reuse\":{},\"warm_fallbacks\":{},\"total_nodes\":{}}}}}",
        num(res.ucap_pct),
        num(res.overload_mw),
        num_array(&res.ua_mw),
        target,
        res.subproblems.len(),
        res.sweep.certified,
        res.sweep.cert_repaired,
        res.sweep.uncertified,
        res.sweep.heuristic_floor,
        res.sweep.warm_starts,
        res.sweep.warm_fallbacks,
        res.total_nodes,
    ))
}

/// `POST /safety-audit` — runs the independent gate on a caller-supplied
/// dispatch and returns the verdict. A failing audit is a *successful
/// assessment* (200 with `passed: false`), not a served dispatch.
fn safety_audit(state: &AppState, body: &Json) -> Response {
    let (entry, demand, ratings) = match case_inputs(state, body) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let p_mw = match body.get("p_mw").and_then(Json::as_f64_array) {
        Some(p) => p,
        None => {
            return Response::refusal(400, "bad_request", "missing number array 'p_mw'")
        }
    };
    let flows_mw = body
        .get("flows_mw")
        .and_then(Json::as_f64_array)
        .unwrap_or_default();
    let dispatch = Dispatch {
        p_mw,
        flows_mw,
        theta_rad: Vec::new(),
        cost: f64::NAN,
        lmp: Vec::new(),
    };
    let gate = match safety_gate(&entry) {
        Ok(g) => g,
        Err(r) => return r,
    };
    let report = gate.check(&demand, &ratings, &dispatch);
    bump(&metrics().served_ok);
    Response::ok(format!("{{\"status\":\"ok\",\"audit\":{}}}", safety_json(&report)))
}
