//! Serializable run plans.
//!
//! A [`RunPlan`] is the complete, declarative description of one
//! simulation: which problem to build, which transport algorithm to use,
//! the run mode, the batch/particle scale, and the optional tally,
//! spectrum, and checkpoint features. Plans round-trip through a small
//! TOML subset ([`RunPlan::to_toml`] / [`RunPlan::from_toml`]) so they
//! can be stored on disk and replayed bit-identically (`mcs run --plan`).

use std::fmt;

use mcs_geom::{RodPattern, TraversalKind};

use crate::catalog;
use crate::physics::AbsorptionTreatment;
use crate::problem::{Problem, ProblemConfig};

/// Which problem to build: a catalog entry name plus optional parameter
/// overrides (the open replacement for the old closed `ModelRef` enum).
///
/// The name is validated against [`crate::catalog::NAMES`] when a plan is
/// parsed; specs constructed programmatically with an unknown name panic
/// at [`RunPlan::build_problem`] time with the same catalog listing.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Catalog entry name (`test`, `small`, `large`, `smr`, `shield`).
    pub name: String,
    /// Parameter overrides applied on top of the entry's baseline.
    pub overrides: ModelOverrides,
}

/// Optional per-plan overrides of a catalog entry's [`mcs_geom::CoreSpec`]
/// parameters. `None` everywhere (the default) leaves the entry exactly
/// as catalogued — and serializes to nothing, so plans without overrides
/// keep their historic TOML text and plan hash.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModelOverrides {
    /// Occupied assembly positions in the core lattice.
    pub assemblies: Option<usize>,
    /// Multiplier applied to every enrichment zone.
    pub enrichment: Option<f64>,
    /// Control-rod insertion pattern.
    pub rods: Option<RodPattern>,
    /// Axial half-height of the active core (cm).
    pub half_height: Option<f64>,
}

impl ModelOverrides {
    /// True when no override is set.
    pub fn is_default(&self) -> bool {
        *self == Self::default()
    }
}

impl Default for ModelSpec {
    fn default() -> Self {
        Self::test()
    }
}

impl ModelSpec {
    /// A spec for catalog entry `name` with no overrides.
    pub fn named(name: &str) -> Self {
        Self {
            name: name.to_string(),
            overrides: ModelOverrides::default(),
        }
    }

    /// The tiny single-assembly unit-test problem.
    pub fn test() -> Self {
        Self::named("test")
    }

    /// Hoogenboom–Martin small (34 nuclides).
    pub fn small() -> Self {
        Self::named("small")
    }

    /// Hoogenboom–Martin large (~300 nuclides, the paper's benchmark).
    pub fn large() -> Self {
        Self::named("large")
    }

    /// The plan-file keyword (catalog entry name).
    pub fn keyword(&self) -> &str {
        &self.name
    }

    /// Canonical one-line rendering of name + overrides. Injective over
    /// distinct specs, so it is safe key material for problem caches.
    pub fn spec_string(&self) -> String {
        let mut s = self.name.clone();
        let o = &self.overrides;
        if let Some(n) = o.assemblies {
            s.push_str(&format!(";assemblies={n}"));
        }
        if let Some(e) = o.enrichment {
            s.push_str(&format!(";enrichment={e}"));
        }
        if let Some(r) = o.rods {
            s.push_str(&format!(";rods={}", r.name()));
        }
        if let Some(h) = o.half_height {
            s.push_str(&format!(";half_height={h}"));
        }
        s
    }
}

/// A typed plan-parse error.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The plan names a model that is not a catalog entry.
    UnknownModel {
        /// The name the plan asked for.
        name: String,
    },
    /// Any other syntax or validation error, with a 1-based line number
    /// where one is known.
    Parse {
        /// Line the error was detected on (`None` for whole-plan checks).
        line: Option<usize>,
        /// Human-readable description.
        msg: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownModel { name } => write!(f, "{}", catalog::unknown_model(name)),
            PlanError::Parse { line: Some(l), msg } => write!(f, "plan line {l}: {msg}"),
            PlanError::Parse { line: None, msg } => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Which transport algorithm executes each batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Classical history-based transport (one particle start-to-finish).
    History,
    /// The paper's SIMD event-banking pipeline (staged bank transport).
    EventBanking,
}

impl Algorithm {
    /// The plan-file keyword for this algorithm.
    pub fn keyword(self) -> &'static str {
        match self {
            Algorithm::History => "history",
            Algorithm::EventBanking => "event",
        }
    }
}

/// The simulation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Power-iteration k-eigenvalue run (inactive + active batches).
    Eigenvalue,
    /// Fixed-source run with fission-chain following.
    FixedSource,
}

impl RunMode {
    /// The plan-file keyword for this mode.
    pub fn keyword(self) -> &'static str {
        match self {
            RunMode::Eigenvalue => "eigenvalue",
            RunMode::FixedSource => "fixed-source",
        }
    }
}

/// Declarative description of the execution policy to run under.
///
/// This is plain data: `mcs_core` can instantiate `Serial` and
/// `Threaded`; `Distributed` is mapped to a policy object by
/// `mcs-cluster` (the core crate has no rank runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// Single-threaded execution (a 1-thread pool).
    Serial,
    /// A dedicated rayon pool with `threads` workers.
    Threaded {
        /// Worker-thread count (0 = ambient/default pool).
        threads: usize,
    },
    /// The chunk-keyed distributed runtime with `ranks` ranks.
    Distributed {
        /// Number of simulated MPI ranks.
        ranks: usize,
    },
}

impl PolicySpec {
    /// Human-readable one-line description.
    pub fn describe(self) -> String {
        match self {
            PolicySpec::Serial => "serial (1 thread)".to_string(),
            PolicySpec::Threaded { threads: 0 } => "threaded (ambient pool)".to_string(),
            PolicySpec::Threaded { threads } => format!("threaded ({threads} threads)"),
            PolicySpec::Distributed { ranks } => format!("distributed ({ranks} ranks)"),
        }
    }
}

/// A complete, serializable description of one simulation run.
///
/// The engine executes a plan with [`crate::engine::run`]; every knob the
/// legacy drivers exposed (mesh tallies, spectrum pass, checkpoint
/// cadence, survival biasing, seed override) is a field here so the whole
/// run matrix is one declarative value.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// Problem to build: catalog entry + overrides.
    pub model: ModelSpec,
    /// Geometry-lookup treatment (flattened cell lists vs nested
    /// universe search). Any setting is bitwise-equivalent; this is a
    /// pure traversal-work knob, but it is kept in the plan hash because
    /// it changes the instrumentation profile of a run.
    pub traversal: TraversalKind,
    /// Transport algorithm for every batch.
    pub algorithm: Algorithm,
    /// Eigenvalue or fixed-source.
    pub mode: RunMode,
    /// Particles per batch (eigenvalue) or source particles (fixed-source).
    pub particles: usize,
    /// Inactive (discarded) batches.
    pub inactive: usize,
    /// Active (tallied) batches.
    pub active: usize,
    /// Override of the problem's master seed (`None` = model default).
    pub seed: Option<u64>,
    /// Use survival-biasing absorption treatment.
    pub survival: bool,
    /// Shannon-entropy mesh resolution.
    pub entropy_mesh: (usize, usize, usize),
    /// Optional mesh-tally resolution (covering the problem bounds),
    /// scored over active batches only.
    pub mesh_tally: Option<(usize, usize, usize)>,
    /// Score a flux spectrum in a dedicated history pass after the run.
    pub spectrum: bool,
    /// Write a statepoint every `n` batches.
    pub checkpoint_every: Option<usize>,
    /// Fission-chain depth cap (fixed-source mode only).
    pub max_chain: usize,
    /// Execution policy to run under.
    pub policy: PolicySpec,
}

impl Default for RunPlan {
    fn default() -> Self {
        RunPlan {
            model: ModelSpec::test(),
            traversal: TraversalKind::default(),
            algorithm: Algorithm::History,
            mode: RunMode::Eigenvalue,
            particles: 2000,
            inactive: 3,
            active: 5,
            seed: None,
            survival: false,
            entropy_mesh: (8, 8, 4),
            mesh_tally: None,
            spectrum: false,
            checkpoint_every: None,
            max_chain: 100_000,
            policy: PolicySpec::Serial,
        }
    }
}

impl RunPlan {
    /// Total batch count (inactive + active).
    pub fn total_batches(&self) -> usize {
        self.inactive + self.active
    }

    /// The problem configuration this plan's model resolves to (before
    /// the seed override). Cheap — does not build the nuclide library.
    ///
    /// # Panics
    /// If the model spec is invalid (unknown entry or bad overrides) —
    /// impossible for plans that came through [`RunPlan::from_toml`],
    /// which validates the spec.
    pub fn default_config(&self) -> ProblemConfig {
        catalog::config_for(&self.model).unwrap_or_else(|e| panic!("invalid model spec: {e}"))
    }

    /// The master seed the run will actually use.
    pub fn resolved_seed(&self) -> u64 {
        self.seed.unwrap_or(self.default_config().seed)
    }

    /// Build the problem this plan describes, applying the survival
    /// treatment and seed override.
    ///
    /// # Panics
    /// If the model spec is invalid (see [`RunPlan::default_config`]).
    pub fn build_problem(&self) -> Problem {
        let mut problem = catalog::build(&self.model, self.traversal)
            .unwrap_or_else(|e| panic!("invalid model spec: {e}"));
        if self.survival {
            problem.treatment = AbsorptionTreatment::survival_default();
        }
        if let Some(s) = self.seed {
            problem.seed = s;
        }
        problem
    }

    /// Fully-resolved multi-line description (what `mcs run --plan
    /// --dry-run` prints).
    pub fn describe(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("model:            {}\n", self.model.spec_string()));
        s.push_str(&format!("traversal:        {}\n", self.traversal.name()));
        s.push_str(&format!("algorithm:        {}\n", self.algorithm.keyword()));
        s.push_str(&format!("mode:             {}\n", self.mode.keyword()));
        s.push_str(&format!("policy:           {}\n", self.policy.describe()));
        s.push_str(&format!(
            "seed:             {} ({})\n",
            self.resolved_seed(),
            if self.seed.is_some() {
                "plan override"
            } else {
                "model default"
            }
        ));
        match self.mode {
            RunMode::Eigenvalue => {
                s.push_str(&format!(
                    "batches:          {} inactive + {} active = {}\n",
                    self.inactive,
                    self.active,
                    self.total_batches()
                ));
                s.push_str(&format!("particles/batch:  {}\n", self.particles));
                let (ex, ey, ez) = self.entropy_mesh;
                s.push_str(&format!("entropy mesh:     {ex}x{ey}x{ez}\n"));
                match self.mesh_tally {
                    Some((nx, ny, nz)) => {
                        s.push_str(&format!("mesh tally:       {nx}x{ny}x{nz}\n"))
                    }
                    None => s.push_str("mesh tally:       off\n"),
                }
                s.push_str(&format!(
                    "spectrum pass:    {}\n",
                    if self.spectrum { "on" } else { "off" }
                ));
                match self.checkpoint_every {
                    Some(n) => s.push_str(&format!("checkpoints:      every {n} batches\n")),
                    None => s.push_str("checkpoints:      off\n"),
                }
            }
            RunMode::FixedSource => {
                s.push_str(&format!("source particles: {}\n", self.particles));
                s.push_str(&format!("max chain depth:  {}\n", self.max_chain));
            }
        }
        s.push_str(&format!(
            "survival biasing: {}\n",
            if self.survival { "on" } else { "off" }
        ));
        s
    }

    /// Serialize to the plan-file TOML subset. Round-trips through
    /// [`RunPlan::from_toml`].
    pub fn to_toml(&self) -> String {
        let mut s = String::new();
        s.push_str("[plan]\n");
        s.push_str(&format!("model = \"{}\"\n", self.model.keyword()));
        s.push_str(&format!("algorithm = \"{}\"\n", self.algorithm.keyword()));
        s.push_str(&format!("mode = \"{}\"\n", self.mode.keyword()));
        s.push_str(&format!("particles = {}\n", self.particles));
        s.push_str(&format!("inactive = {}\n", self.inactive));
        s.push_str(&format!("active = {}\n", self.active));
        if let Some(seed) = self.seed {
            s.push_str(&format!("seed = {seed}\n"));
        }
        s.push_str(&format!("survival = {}\n", self.survival));
        let (ex, ey, ez) = self.entropy_mesh;
        s.push_str(&format!("entropy_mesh = [{ex}, {ey}, {ez}]\n"));
        if let Some((nx, ny, nz)) = self.mesh_tally {
            s.push_str(&format!("mesh_tally = [{nx}, {ny}, {nz}]\n"));
        }
        s.push_str(&format!("spectrum = {}\n", self.spectrum));
        if let Some(every) = self.checkpoint_every {
            s.push_str(&format!("checkpoint_every = {every}\n"));
        }
        s.push_str(&format!("max_chain = {}\n", self.max_chain));
        s.push_str(QUEUEING_SHIM_TOML);
        // Emitted only off-default so plans without the new knobs keep
        // their historic TOML text (and therefore their plan hash).
        if self.traversal != TraversalKind::default() {
            s.push_str(&format!("traversal = \"{}\"\n", self.traversal.name()));
        }
        if !self.model.overrides.is_default() {
            let o = &self.model.overrides;
            s.push_str("\n[model]\n");
            if let Some(n) = o.assemblies {
                s.push_str(&format!("assemblies = {n}\n"));
            }
            if let Some(e) = o.enrichment {
                s.push_str(&format!("enrichment = {e}\n"));
            }
            if let Some(r) = o.rods {
                s.push_str(&format!("rods = \"{}\"\n", r.name()));
            }
            if let Some(h) = o.half_height {
                s.push_str(&format!("half_height = {h}\n"));
            }
        }
        s.push_str("\n[policy]\n");
        match self.policy {
            PolicySpec::Serial => s.push_str("kind = \"serial\"\n"),
            PolicySpec::Threaded { threads } => {
                s.push_str("kind = \"threaded\"\n");
                s.push_str(&format!("threads = {threads}\n"));
            }
            PolicySpec::Distributed { ranks } => {
                s.push_str("kind = \"distributed\"\n");
                s.push_str(&format!("ranks = {ranks}\n"));
            }
        }
        s
    }

    /// Parse a plan from the TOML subset emitted by
    /// [`RunPlan::to_toml`]: `[plan]` / `[model]` / `[policy]` tables
    /// with `key = value` pairs (integers, floats, booleans, quoted
    /// strings, and 3-element integer arrays), `#` comments.
    ///
    /// The model name is validated against the catalog here: an unknown
    /// name is a typed [`PlanError::UnknownModel`] whose message names
    /// the valid entries, never a silent default.
    pub fn from_toml(text: &str) -> Result<RunPlan, PlanError> {
        let mut plan = RunPlan::default();
        let mut policy_kind: Option<String> = None;
        let mut policy_threads: Option<usize> = None;
        let mut policy_ranks: Option<usize> = None;
        let mut section = String::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| PlanError::Parse {
                line: Some(lineno + 1),
                msg: msg.to_string(),
            };
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                if !matches!(section.as_str(), "plan" | "model" | "policy") {
                    return Err(err(&format!(
                        "unknown section [{section}] \
                         (expected [plan], [model], or [policy])"
                    )));
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err("expected `key = value`"))?;
            let key = key.trim();
            let value = Value::parse(value.trim()).map_err(|e| err(&e))?;
            match (section.as_str(), key) {
                ("plan", "model") => {
                    let name = value.as_str().map_err(|e| err(&e))?;
                    if !catalog::is_known(name) {
                        return Err(PlanError::UnknownModel {
                            name: name.to_string(),
                        });
                    }
                    plan.model.name = name.to_string();
                }
                ("plan", "traversal") => {
                    let name = value.as_str().map_err(|e| err(&e))?;
                    plan.traversal = TraversalKind::from_name(name).ok_or_else(|| {
                        err(&format!(
                            "unknown traversal \"{name}\" (expected flattened | nested)"
                        ))
                    })?;
                }
                ("model", "assemblies") => {
                    plan.model.overrides.assemblies = Some(value.as_usize().map_err(|e| err(&e))?)
                }
                ("model", "enrichment") => {
                    plan.model.overrides.enrichment = Some(value.as_f64().map_err(|e| err(&e))?)
                }
                ("model", "rods") => {
                    let name = value.as_str().map_err(|e| err(&e))?;
                    plan.model.overrides.rods =
                        Some(RodPattern::from_name(name).ok_or_else(|| {
                            err(&format!(
                                "unknown rod pattern \"{name}\" \
                                 (expected none | center | checkerboard)"
                            ))
                        })?);
                }
                ("model", "half_height") => {
                    plan.model.overrides.half_height = Some(value.as_f64().map_err(|e| err(&e))?)
                }
                ("plan", "algorithm") => {
                    plan.algorithm = match value.as_str().map_err(|e| err(&e))? {
                        "history" => Algorithm::History,
                        "event" => Algorithm::EventBanking,
                        other => return Err(err(&format!("unknown algorithm \"{other}\""))),
                    }
                }
                ("plan", "mode") => {
                    plan.mode = match value.as_str().map_err(|e| err(&e))? {
                        "eigenvalue" => RunMode::Eigenvalue,
                        "fixed-source" => RunMode::FixedSource,
                        other => return Err(err(&format!("unknown mode \"{other}\""))),
                    }
                }
                ("plan", "particles") => plan.particles = value.as_usize().map_err(|e| err(&e))?,
                ("plan", "inactive") => plan.inactive = value.as_usize().map_err(|e| err(&e))?,
                ("plan", "active") => plan.active = value.as_usize().map_err(|e| err(&e))?,
                ("plan", "seed") => plan.seed = Some(value.as_u64().map_err(|e| err(&e))?),
                ("plan", "survival") => plan.survival = value.as_bool().map_err(|e| err(&e))?,
                ("plan", "entropy_mesh") => {
                    plan.entropy_mesh = value.as_triple().map_err(|e| err(&e))?
                }
                ("plan", "mesh_tally") => {
                    plan.mesh_tally = Some(value.as_triple().map_err(|e| err(&e))?)
                }
                ("plan", "spectrum") => plan.spectrum = value.as_bool().map_err(|e| err(&e))?,
                ("plan", "checkpoint_every") => {
                    plan.checkpoint_every = Some(value.as_usize().map_err(|e| err(&e))?)
                }
                ("plan", "max_chain") => plan.max_chain = value.as_usize().map_err(|e| err(&e))?,
                ("plan", k @ ("queueing" | "queueing_bins" | "queueing_fuel_split")) => {
                    let is_the_constant = match (k, &value) {
                        ("queueing", Value::Str(s)) => s == "material",
                        ("queueing_bins", Value::Int(4096)) => true,
                        ("queueing_fuel_split", Value::Bool(false)) => true,
                        _ => false,
                    };
                    if !is_the_constant {
                        return Err(err(&format!(
                            "`{k}` was removed in PR 13 (every setting was bit-identical \
                             to \"material\"); only the constant lines `queueing = \
                             \"material\"`, `queueing_bins = 4096` and \
                             `queueing_fuel_split = false` are still accepted"
                        )));
                    }
                }
                ("policy", "kind") => {
                    policy_kind = Some(value.as_str().map_err(|e| err(&e))?.to_string())
                }
                ("policy", "threads") => {
                    policy_threads = Some(value.as_usize().map_err(|e| err(&e))?)
                }
                ("policy", "ranks") => policy_ranks = Some(value.as_usize().map_err(|e| err(&e))?),
                ("", k) => return Err(err(&format!("key `{k}` before any [section]"))),
                (s, k) => return Err(err(&format!("unknown key `{k}` in [{s}]"))),
            }
        }
        let invalid = |msg: String| PlanError::Parse { line: None, msg };
        if let Some(kind) = policy_kind {
            plan.policy = match kind.as_str() {
                "serial" => PolicySpec::Serial,
                "threaded" => PolicySpec::Threaded {
                    threads: policy_threads.unwrap_or(0),
                },
                "distributed" => PolicySpec::Distributed {
                    ranks: policy_ranks.ok_or_else(|| {
                        invalid("policy kind \"distributed\" requires `ranks`".to_string())
                    })?,
                },
                other => return Err(invalid(format!("unknown policy kind \"{other}\""))),
            };
        }
        if plan.mode == RunMode::Eigenvalue && plan.total_batches() == 0 {
            return Err(invalid(
                "plan has zero batches (inactive + active == 0)".to_string(),
            ));
        }
        if plan.particles == 0 {
            return Err(invalid("plan has zero particles".to_string()));
        }
        // Validate the full model spec (overrides included) up front, so
        // `build_problem` cannot fail later on a parsed plan.
        catalog::config_for(&plan.model).map_err(invalid)?;
        Ok(plan)
    }
}

/// Compatibility shim: the three stage-2 queueing keys, removed as options
/// in PR 13 (by-material bucketing is the only ordering), are still
/// emitted as constants — and accepted only with these values — so every
/// plan hash, serve cache key and committed `benchmark/workloads/*.toml`
/// stays byte-identical. Lives until a `benchmark` PR regenerates the
/// plan files; then this const and its `from_toml` arms go.
const QUEUEING_SHIM_TOML: &str =
    "queueing = \"material\"\nqueueing_bins = 4096\nqueueing_fuel_split = false\n";

/// Truncate `line` at the first `#` that is outside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// A parsed plan-file value.
enum Value {
    Str(String),
    Int(u64),
    Float(f64),
    Bool(bool),
    Array(Vec<u64>),
}

impl Value {
    fn parse(raw: &str) -> Result<Value, String> {
        if let Some(inner) = raw.strip_prefix('"') {
            let inner = inner
                .strip_suffix('"')
                .ok_or_else(|| format!("unterminated string {raw}"))?;
            if inner.contains('"') {
                return Err(format!("embedded quote in string {raw}"));
            }
            return Ok(Value::Str(inner.to_string()));
        }
        if raw == "true" {
            return Ok(Value::Bool(true));
        }
        if raw == "false" {
            return Ok(Value::Bool(false));
        }
        if let Some(inner) = raw.strip_prefix('[') {
            let inner = inner
                .strip_suffix(']')
                .ok_or_else(|| format!("unterminated array {raw}"))?;
            let items: Result<Vec<u64>, _> =
                inner.split(',').map(|s| s.trim().parse::<u64>()).collect();
            return items
                .map(Value::Array)
                .map_err(|_| format!("non-integer array element in {raw}"));
        }
        // Allow underscore digit grouping, as TOML does. Integers first,
        // then floats — `{}`-formatted f64 round-trips exactly, and a
        // whole-number float ("120") comes back through the integer arm
        // with the identical value.
        let digits = raw.replace('_', "");
        if let Ok(v) = digits.parse::<u64>() {
            return Ok(Value::Int(v));
        }
        digits
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Value::Float)
            .ok_or_else(|| format!("cannot parse value `{raw}`"))
    }

    fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err("expected a quoted string".to_string()),
        }
    }

    fn as_u64(&self) -> Result<u64, String> {
        match self {
            Value::Int(v) => Ok(*v),
            _ => Err("expected an integer".to_string()),
        }
    }

    fn as_usize(&self) -> Result<usize, String> {
        Ok(self.as_u64()? as usize)
    }

    fn as_f64(&self) -> Result<f64, String> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            _ => Err("expected a number".to_string()),
        }
    }

    fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err("expected `true` or `false`".to_string()),
        }
    }

    fn as_triple(&self) -> Result<(usize, usize, usize), String> {
        match self {
            Value::Array(v) if v.len() == 3 => Ok((v[0] as usize, v[1] as usize, v[2] as usize)),
            _ => Err("expected a 3-element integer array".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The typed parse error `text` must fail with: its line and message.
    fn parse_error(text: &str) -> (Option<usize>, String) {
        match RunPlan::from_toml(text).unwrap_err() {
            PlanError::Parse { line, msg } => (line, msg),
            other => panic!("{text:?}: expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn default_plan_round_trips() {
        let plan = RunPlan::default();
        let text = plan.to_toml();
        let back = RunPlan::from_toml(&text).expect("parse");
        assert_eq!(plan, back);
    }

    #[test]
    fn full_plan_round_trips() {
        let plan = RunPlan {
            model: ModelSpec::small(),
            traversal: TraversalKind::Nested,
            algorithm: Algorithm::EventBanking,
            mode: RunMode::Eigenvalue,
            particles: 12_345,
            inactive: 7,
            active: 11,
            seed: Some(0xDEAD_BEEF),
            survival: true,
            entropy_mesh: (4, 5, 6),
            mesh_tally: Some((10, 11, 12)),
            spectrum: true,
            checkpoint_every: Some(3),
            max_chain: 42,
            policy: PolicySpec::Distributed { ranks: 4 },
        };
        let back = RunPlan::from_toml(&plan.to_toml()).expect("parse");
        assert_eq!(plan, back);
    }

    #[test]
    fn removed_queueing_keys_accept_only_their_constants() {
        let ok = format!("[plan]\n{QUEUEING_SHIM_TOML}");
        assert_eq!(RunPlan::from_toml(&ok).expect("parse"), RunPlan::default());
        for bad in [
            "queueing = \"off\"",
            "queueing = \"material+energy\"",
            "queueing = \"bogus\"",
            "queueing = 4096",
            "queueing_bins = 128",
            "queueing_fuel_split = true",
        ] {
            // Line 3: after a comment line and the section header.
            let (line, msg) = parse_error(&format!("# c\n[plan]\n{bad}\n"));
            assert_eq!(line, Some(3), "{bad}");
            assert!(msg.contains("removed in PR 13"), "{bad}: {msg}");
            assert!(msg.contains("bit-identical"), "{bad}: {msg}");
        }
    }

    #[test]
    fn comments_and_whitespace_tolerated() {
        let text = "\n# a comment\n[plan]\n  model = \"test\"  # trailing\n\nparticles = 1_000\n[policy]\nkind = \"threaded\"\nthreads = 2\n";
        let plan = RunPlan::from_toml(text).expect("parse");
        assert_eq!(plan.model, ModelSpec::test());
        assert_eq!(plan.particles, 1000);
        assert_eq!(plan.policy, PolicySpec::Threaded { threads: 2 });
    }

    #[test]
    fn model_section_and_traversal_round_trip() {
        let plan = RunPlan {
            model: ModelSpec {
                name: "smr".into(),
                overrides: ModelOverrides {
                    assemblies: Some(21),
                    enrichment: Some(1.12),
                    rods: Some(RodPattern::Checkerboard),
                    half_height: Some(90.5),
                },
            },
            traversal: TraversalKind::Nested,
            ..RunPlan::default()
        };
        let text = plan.to_toml();
        assert!(text.contains("[model]"));
        assert!(text.contains("traversal = \"nested\""));
        // The [model] section must precede [policy] so the serve layer's
        // canonical-text cut keeps it inside the plan hash.
        assert!(text.find("[model]").unwrap() < text.find("[policy]").unwrap());
        let back = RunPlan::from_toml(&text).expect("parse");
        assert_eq!(plan, back);
    }

    #[test]
    fn default_knobs_keep_the_historic_toml_shape() {
        // Plans without overrides or a non-default traversal serialize
        // exactly as before this refactor: no [model] section, no
        // traversal key — so historic plan hashes are preserved.
        let text = RunPlan::default().to_toml();
        assert!(!text.contains("[model]"));
        assert!(!text.contains("traversal"));
    }

    #[test]
    fn unknown_model_is_a_typed_error_naming_the_catalog() {
        let err = RunPlan::from_toml("[plan]\nmodel = \"warp-core\"\n").unwrap_err();
        assert_eq!(
            err,
            PlanError::UnknownModel {
                name: "warp-core".into()
            }
        );
        let msg = err.to_string();
        for name in crate::catalog::NAMES {
            assert!(msg.contains(name), "error must name {name}: {msg}");
        }
    }

    #[test]
    fn catalog_models_parse() {
        for name in crate::catalog::NAMES {
            let text = format!("[plan]\nmodel = \"{name}\"\n");
            let plan = RunPlan::from_toml(&text).expect(name);
            assert_eq!(plan.model, ModelSpec::named(name));
        }
    }

    #[test]
    fn bad_overrides_fail_at_parse_time() {
        let err = RunPlan::from_toml("[plan]\nmodel = \"test\"\n[model]\nassemblies = 999\n")
            .unwrap_err();
        assert!(err.to_string().contains("exceeds"));
        let err = RunPlan::from_toml("[model]\nrods = \"sideways\"\n").unwrap_err();
        assert!(err.to_string().contains("rod pattern"));
        let err = RunPlan::from_toml("[plan]\ntraversal = \"sideways\"\n").unwrap_err();
        assert!(err.to_string().contains("traversal"));
    }

    #[test]
    fn float_values_parse_and_round_trip() {
        let plan =
            RunPlan::from_toml("[model]\nenrichment = 1.25\nhalf_height = 120\n").expect("parse");
        assert_eq!(plan.model.overrides.enrichment, Some(1.25));
        assert_eq!(plan.model.overrides.half_height, Some(120.0));
        let back = RunPlan::from_toml(&plan.to_toml()).expect("round trip");
        assert_eq!(plan, back);
        assert!(RunPlan::from_toml("[model]\nenrichment = \"hot\"\n").is_err());
        assert!(RunPlan::from_toml("[model]\nenrichment = 1.2.3\n").is_err());
    }

    #[test]
    fn spec_string_is_injective_over_overrides() {
        let a = ModelSpec::named("smr");
        let mut b = a.clone();
        b.overrides.enrichment = Some(1.1);
        let mut c = a.clone();
        c.overrides.half_height = Some(1.1);
        let strings = [a.spec_string(), b.spec_string(), c.spec_string()];
        assert_eq!(
            strings
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            3
        );
    }

    #[test]
    fn unknown_key_rejected() {
        let (line, msg) = parse_error("[plan]\nmodell = \"test\"\n");
        assert_eq!(line, Some(2));
        assert!(msg.contains("unknown key `modell`"), "{msg}");
        // The plan-level device selector was removed in PR 14 without a
        // shim: its keys are unknown keys like any other.
        let (line, msg) = parse_error("[plan]\nmodel = \"test\"\ndevice = \"a100\"\n");
        assert_eq!(line, Some(3));
        assert!(msg.contains("unknown key `device` in [plan]"), "{msg}");
    }

    #[test]
    fn unknown_section_rejected() {
        let (line, msg) = parse_error("[nope]\n");
        assert_eq!(line, Some(1));
        assert!(msg.contains("unknown section [nope]"), "{msg}");
        let (line, msg) = parse_error("[plan]\nmodel = \"test\"\n\n[device]\ncores = 54\n");
        assert_eq!(line, Some(4));
        assert!(msg.contains("unknown section [device]"), "{msg}");
    }

    #[test]
    fn distributed_requires_ranks() {
        let text = "[policy]\nkind = \"distributed\"\n";
        assert!(RunPlan::from_toml(text).is_err());
    }

    #[test]
    fn zero_scale_rejected() {
        assert!(RunPlan::from_toml("[plan]\ninactive = 0\nactive = 0\n").is_err());
        assert!(RunPlan::from_toml("[plan]\nparticles = 0\n").is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        // No current keyword contains '#', but the lexer must not split
        // strings on it.
        assert_eq!(strip_comment("key = \"a#b\" # real"), "key = \"a#b\" ");
    }
}
