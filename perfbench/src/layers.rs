//! The server's request path replayed through its public pieces, one
//! span per layer, for the traced run.
//!
//! `Pipeline::serve` does what a shard worker of `amgen-serve` does for
//! one frame, in the same order and with the same configuration:
//! `read_frame` → `parse_request` → `GenCtx::new` + `Interpreter::new` +
//! `load_entities` → `Linter::certify_source` and the admission check →
//! `Interpreter::run` → `layout_json` + `wire_string` → `write_frame`.
//! The traced run checks that its payloads equal the server's, so the
//! layer times describe the code the end-to-end workloads run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use amgen::core::{Budget, GenCache, GenCtx, MetricsSnapshot};
use amgen::dsl::ast::Entity;
use amgen::dsl::parser::parse;
use amgen::dsl::{stdlib, DslError, Interpreter};
use amgen::lint::{has_errors, CheckError, Linter};
use amgen::serve::proto::{
    diagnostics_json, gen_error_detail, layout_json, parse_request, read_frame, stats_json,
    write_frame, Request,
};
use amgen::serve::{ErrorCode, Json, Response, ServeConfig};
use amgen::tech::{RuleSet, Tech};
use amgen::trace::TraceSink;

/// One replayed request: the response frame and what the generation
/// context counted.
pub struct Served {
    pub frame: Vec<u8>,
    pub snap: MetricsSnapshot,
}

pub struct Pipeline {
    config: ServeConfig,
    cache: Arc<GenCache>,
    stdlib: Vec<Entity>,
    rules: BTreeMap<&'static str, Arc<RuleSet>>,
}

impl Pipeline {
    /// A pipeline with the server's default configuration and a cache of
    /// the server's default capacity.
    pub fn new() -> Pipeline {
        let config = ServeConfig::default();
        let cache = Arc::new(GenCache::with_capacity(config.cache_capacity));
        let mut stdlib = Vec::new();
        for lib in [
            stdlib::FIG2_CONTACT_ROW,
            stdlib::FIG7_DIFF_PAIR,
            stdlib::INTERDIGIT,
            stdlib::STACKED,
            stdlib::CENTROID_PLACEMENT,
            stdlib::VARIANT_ROW,
        ] {
            stdlib.extend(parse(lib).expect("embedded library parses").entities);
        }
        let rules = BTreeMap::from([
            ("bicmos_1u", Tech::bicmos_1u().compile_arc()),
            ("cmos_08", Tech::cmos_08().compile_arc()),
        ]);
        Pipeline {
            config,
            cache,
            stdlib,
            rules,
        }
    }

    /// The request's budget: the tenant cap, tightened by the request.
    fn budget(&self, req: &Request) -> Budget {
        let cap = self.config.tenant_budget;
        let spec = &req.budget;
        Budget::unlimited()
            .with_dsl_fuel(spec.fuel.map_or(cap.dsl_fuel, |f| f.min(cap.dsl_fuel)))
            .with_max_recursion(
                spec.recursion
                    .map_or(cap.max_recursion, |r| (r as usize).min(cap.max_recursion)),
            )
            .with_max_compact_steps(
                spec.compact_steps
                    .map_or(cap.max_compact_steps, |s| s.min(cap.max_compact_steps)),
            )
            .with_wall(req.wall(self.config.wall_cap))
    }

    /// Serves one request frame, each layer inside a span of `sink`.
    /// `Err` for a frame or request the workloads never send.
    pub fn serve(&self, sink: &TraceSink, frame: &[u8]) -> Result<Served, String> {
        let payload = {
            let _s = sink.span("serve", || "frame_read");
            read_frame(&mut &frame[..], self.config.max_frame).map_err(|e| e.to_string())?
        };
        let req = {
            let _s = sink.span("serve", || "parse");
            parse_request(&payload).map_err(|(_, msg)| msg)?
        };
        let (mut interp, source, rules) = {
            let _s = sink.span("serve", || "ctx_setup");
            let rules = Arc::clone(
                self.rules
                    .get(req.tech.as_str())
                    .ok_or_else(|| format!("unknown tech {}", req.tech))?,
            );
            let ctx = GenCtx::new(Arc::clone(&rules))
                .with_budget(self.budget(&req))
                .with_cache(Arc::clone(&self.cache));
            let mut interp = Interpreter::new(ctx);
            interp.load_entities(self.stdlib.iter().cloned());
            (interp, format!("{}{}", req.prelude(), req.source), rules)
        };
        let t0 = Instant::now();
        let admitted = {
            let _s = sink.span("lint", || "certify");
            let mut linter = Linter::with_rules(Arc::clone(&rules));
            linter.load_entities(interp.entities().cloned());
            let (diags, report) = linter.certify_source(&source);
            if has_errors(&diags) {
                Err((Vec::new(), CheckError::Lint(diags)))
            } else {
                match report.tops.first() {
                    Some(Some(cert)) => {
                        let estimate = cert.estimate(interp.max_variants);
                        match interp.ctx().limits.budget().admits(&estimate) {
                            Ok(()) => Ok(diags),
                            Err(e) => {
                                interp.ctx().metrics.add_admission_refused();
                                Err((
                                    diags,
                                    CheckError::Admission {
                                        estimate,
                                        reason: e.to_string(),
                                    },
                                ))
                            }
                        }
                    }
                    _ => Ok(diags),
                }
            }
        };
        let (diags, result) = match admitted {
            Ok(diags) => {
                let _s = sink.span("dsl", || "run");
                let result = interp.run(&source).map_err(CheckError::Run);
                (diags, result)
            }
            Err((diags, e)) => (diags, Err(e)),
        };
        let wall = t0.elapsed();
        let (wire, snap) = {
            let _s = sink.span("serve", || "serialize");
            let response = respond(&req, diags, result, &rules);
            let mut snap = interp.ctx().metrics.snapshot();
            snap.rule_queries = 0;
            let flags = if snap.cache_hits > 0 {
                vec!["cache_hit"]
            } else {
                Vec::new()
            };
            let stats = stats_json(wall, interp.ctx().limits.fuel_used(), &snap, flags, None);
            (response.with_stats(stats).wire_string(), snap)
        };
        let mut out = Vec::with_capacity(wire.len() + 8);
        {
            let _s = sink.span("serve", || "frame_write");
            write_frame(&mut out, wire.as_bytes()).map_err(|e| e.to_string())?;
        }
        Ok(Served { frame: out, snap })
    }
}

/// The response `amgen-serve` builds for a checked run.
fn respond(
    req: &Request,
    diags: Vec<amgen::lint::Diagnostic>,
    result: Result<BTreeMap<String, amgen::db::LayoutObject>, CheckError>,
    rules: &RuleSet,
) -> Response {
    let prelude_lines = req.prelude_lines();
    let diagnostics = diagnostics_json(&diags, prelude_lines);
    match result {
        Ok(layouts) => {
            let objs = layouts
                .iter()
                .map(|(name, obj)| (name.clone(), layout_json(obj, rules)))
                .collect();
            Response::ok(&req.id, Json::Obj(objs), diagnostics)
        }
        Err(CheckError::Lint(all)) => Response::error(
            &req.id,
            ErrorCode::LintRejected,
            Json::obj([(
                "message",
                Json::from(format!(
                    "lint found {} error(s); program not run",
                    all.iter().filter(|d| d.is_error()).count()
                )),
            )]),
            diagnostics_json(&all, prelude_lines),
        ),
        Err(CheckError::Admission { estimate, reason }) => {
            let mut detail = BTreeMap::new();
            detail.insert("message".to_string(), Json::from(reason));
            if let Some(fuel) = estimate.fuel {
                detail.insert("certified_fuel".to_string(), Json::from(fuel));
            }
            Response::error(
                &req.id,
                ErrorCode::AdmissionRefused,
                Json::Obj(detail),
                diagnostics,
            )
        }
        Err(CheckError::Run(e)) => {
            let (code, detail) = match &e {
                DslError::Gen(g) => (ErrorCode::from_gen_kind(&g.kind), gen_error_detail(g)),
                other => (
                    ErrorCode::RuntimeError,
                    Json::obj([("message", Json::from(other.to_string()))]),
                ),
            };
            Response::error(&req.id, code, detail, diagnostics)
        }
    }
}
