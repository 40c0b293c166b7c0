//! Route table of the control plane: maps parsed HTTP requests onto
//! [`DaemonState`] operations.
//!
//! | Method | Path                  | Meaning                                        |
//! |--------|-----------------------|------------------------------------------------|
//! | GET    | `/`                   | endpoint index (text)                          |
//! | GET    | `/healthz`            | liveness + queue counters                      |
//! | GET    | `/presets`            | spec presets the daemon can run by name        |
//! | POST   | `/jobs`               | submit a job (`202` + acceptance record)       |
//! | GET    | `/jobs`               | all jobs, brief                                |
//! | GET    | `/jobs/<id>`          | one job: state, progress, ETA, failures        |
//! | GET    | `/jobs/<id>/results`  | rendered aggregate table (`409` until done)    |
//! | GET    | `/jobs/<id>/manifest` | per-point provenance manifest JSON (journaled) |
//! | POST   | `/jobs/<id>/cancel`   | cancel a queued/running job                    |
//! | GET    | `/figures`            | figure registry + dirty flags                  |
//! | GET    | `/figures/<name>`     | rendered figure text from the cache            |
//! | POST   | `/shutdown`           | begin the graceful drain                       |

use crate::http::{Handler, Request, Response};
use crate::queue::{JobId, Priority};
use crate::DaemonState;
use noc_campaign::CampaignSpec;
use serde::Deserialize;
use std::sync::Arc;

const INDEX: &str = "\
noc-daemon — campaign service for the DXbar reproduction

  GET  /healthz              liveness and queue counters
  GET  /presets              named campaign presets
  POST /jobs                 submit {\"preset\": \"smoke\"} or {\"spec\": {...}}
                             optional: \"name\", \"priority\" (interactive|batch),
                             \"verify\" (bool), \"seeds\" (replicates per point)
  GET  /jobs                 list jobs
  GET  /jobs/<id>            job status, progress, ETA, failure repros
  GET  /jobs/<id>/results    aggregate table (409 until the job finishes)
  GET  /jobs/<id>/manifest   per-point provenance manifest
  POST /jobs/<id>/cancel     cancel a queued/running job
  GET  /figures              figure registry and dirty flags
  GET  /figures/<name>       rendered figure text from the shared cache
  POST /shutdown             graceful drain (finish in-flight, journal queue)
";

/// Build the route handler over shared daemon state.
pub fn handler(state: Arc<DaemonState>) -> Handler {
    Arc::new(move |req| route(&state, req))
}

fn method_not_allowed(allowed: &str) -> Response {
    Response::error(405, format!("method not allowed; use {allowed}"))
}

fn parse_id(s: &str) -> Option<JobId> {
    s.parse::<JobId>().ok()
}

fn route(state: &DaemonState, req: &Request) -> Response {
    // With a token configured, every mutating (POST) endpoint — submit,
    // cancel, shutdown — demands the bearer token. Reads stay open: the
    // daemon's status surface is harmless, the job queue is not.
    if let Some(token) = &state.cfg.auth_token {
        if req.method == "POST" {
            let want = format!("Bearer {token}");
            if req.authorization.as_deref() != Some(want.as_str()) {
                return Response::error(401, "missing or invalid bearer token");
            }
        }
    }
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let m = req.method.as_str();
    match segs.as_slice() {
        [] => match m {
            "GET" => Response::text(200, INDEX),
            _ => method_not_allowed("GET"),
        },
        ["healthz"] => match m {
            "GET" => Response::json(200, &state.health_value()),
            _ => method_not_allowed("GET"),
        },
        ["presets"] => match m {
            "GET" => Response::json(200, &state.presets_value()),
            _ => method_not_allowed("GET"),
        },
        ["jobs"] => match m {
            "GET" => Response {
                status: 200,
                content_type: "application/json",
                body: Vec::new(),
                shared: state.jobs_body(),
            },
            "POST" => submit(state, &req.body),
            _ => method_not_allowed("GET, POST"),
        },
        ["jobs", id] => match m {
            "GET" => match parse_id(id).and_then(|id| state.job_value(id)) {
                Some(v) => Response::json(200, &v),
                None => Response::error(404, format!("no job {id}")),
            },
            _ => method_not_allowed("GET"),
        },
        ["jobs", id, "results"] => match m {
            "GET" => match parse_id(id) {
                Some(id) => match state.job_results(id) {
                    Ok(text) => Response::text(200, text),
                    Err((status, msg)) => Response::error(status, msg),
                },
                None => Response::error(404, format!("no job {id}")),
            },
            _ => method_not_allowed("GET"),
        },
        ["jobs", id, "manifest"] => match m {
            "GET" => match parse_id(id) {
                Some(id) => match state.job_manifest(id) {
                    Ok(json) => Response {
                        status: 200,
                        content_type: "application/json",
                        body: json.into_bytes(),
                        shared: Vec::new(),
                    },
                    Err((status, msg)) => Response::error(status, msg),
                },
                None => Response::error(404, format!("no job {id}")),
            },
            _ => method_not_allowed("GET"),
        },
        ["jobs", id, "cancel"] => match m {
            "POST" => match parse_id(id) {
                Some(id) => match state.cancel(id) {
                    Ok(v) => Response::json(200, &v),
                    Err((status, msg)) => Response::error(status, msg),
                },
                None => Response::error(404, format!("no job {id}")),
            },
            _ => method_not_allowed("POST"),
        },
        ["figures"] => match m {
            "GET" => Response::json(200, &state.figures_value()),
            _ => method_not_allowed("GET"),
        },
        ["figures", name] => match m {
            "GET" => match state.figure_text(name) {
                Some(text) => Response::text(200, text),
                None => Response::error(
                    404,
                    format!(
                        "no figure {name:?}; known: {}",
                        crate::figures::FIGURES.join(", ")
                    ),
                ),
            },
            _ => method_not_allowed("GET"),
        },
        ["shutdown"] => match m {
            "POST" => {
                state.begin_drain();
                Response::json(
                    202,
                    &serde::Value::Object(vec![("draining".into(), serde::Value::Bool(true))]),
                )
            }
            _ => method_not_allowed("POST"),
        },
        _ => Response::error(404, format!("no such route: {} {}", req.method, req.path)),
    }
}

/// Parse and queue a `POST /jobs` body.
fn submit(state: &DaemonState, body: &[u8]) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::error(400, "body is not UTF-8");
    };
    if text.trim().is_empty() {
        return Response::error(400, "empty body; expected a JSON job request");
    }
    let v = match serde_json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, format!("invalid JSON: {e}")),
    };
    let preset = v.field("preset").as_str();
    let spec_field = v.field("spec");
    let mut spec = match (preset, spec_field.is_null()) {
        (Some(p), true) => match bench::specs::preset(p) {
            Some(s) => s,
            None => {
                return Response::error(
                    400,
                    format!(
                        "unknown preset {p:?}; known: {}",
                        bench::specs::PRESETS.join(", ")
                    ),
                )
            }
        },
        (None, false) => match CampaignSpec::from_value(spec_field) {
            Ok(s) => s,
            Err(e) => return Response::error(400, format!("bad spec: {e}")),
        },
        (Some(_), false) => {
            return Response::error(400, "give either \"preset\" or \"spec\", not both")
        }
        (None, true) => return Response::error(400, "missing \"preset\" or \"spec\""),
    };
    match v.field("seeds") {
        serde::Value::Null => {}
        s => match s.as_u64() {
            Some(n) if (1..=64).contains(&n) => {
                let seeds = bench::derive_seeds(n as usize);
                for g in &mut spec.groups {
                    g.seeds = seeds.clone();
                }
            }
            _ => return Response::error(400, "\"seeds\" must be an integer in 1..=64"),
        },
    }
    let priority = match v.field("priority") {
        serde::Value::Null => None,
        p => match p.as_str().and_then(Priority::parse) {
            Some(p) => Some(p),
            None => {
                return Response::error(400, "\"priority\" must be \"interactive\" or \"batch\"")
            }
        },
    };
    let verify = match v.field("verify") {
        serde::Value::Null => state.cfg.verify_default,
        b => match b.as_bool() {
            Some(b) => b,
            None => return Response::error(400, "\"verify\" must be a boolean"),
        },
    };
    let name = v.field("name").as_str().map(String::from);
    match state.submit(spec, name, priority, verify, "http".into()) {
        Ok(accepted) => Response::json(202, &accepted),
        Err((status, msg)) => Response::error(status, msg),
    }
}
