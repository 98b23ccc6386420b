//! The Workflow Repository Service.
//!
//! Stores workflow scripts (schema, in the paper's terminology) with
//! versioning, validates them on registration, and serves them to the
//! execution service (paper §3, Fig. 4: "The repository service stores
//! workflow scripts and provides operations for initializing, modifying
//! and inspecting scripts"). Scripts are stored in the canonical
//! formatter's normal form.
//!
//! Registration runs the whole front end once, on the submitted text (so
//! its diagnostics point at the user's lines), and stores the canonical
//! text; `RepoGet` replies carry that text and its root. The text is
//! the script version: every instance pins it, and each coordinator
//! compiles it into a plan once per shard (compile once, execute many).
//! A version never changes once stored, so a shard asks for each one
//! once: the façade names the version it last registered in every
//! start, and a shard that fetched it before serves the start itself.
//!
//! The service is a value like every node (`crate::driver`): a
//! `RepoRegister` or `RepoGet` request in, its one reply out.

use std::collections::BTreeMap;
use std::convert::Infallible;

use flowscript_core::{fmt as script_fmt, schema};
use flowscript_sim::{NodeId, SimTime};

use crate::driver::{Input, Node, Output};
use crate::error::EngineError;
use crate::msg::EngineMsg;

/// One stored script version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptVersion {
    /// Canonical source text.
    pub source: String,
    /// Root compound task name.
    pub root: String,
}

/// The repository service on its node.
#[derive(Debug)]
pub struct Repository {
    node: NodeId,
    scripts: BTreeMap<String, Vec<ScriptVersion>>,
}

impl Repository {
    /// An empty repository on `node`.
    pub fn new(node: NodeId) -> Self {
        Self {
            node,
            scripts: BTreeMap::new(),
        }
    }

    /// Validates and stores a script, returning its (1-based) version.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidScript`] when the script fails the front-end
    /// pipeline (parse, templates, sema, compile for the given root).
    pub fn register(&mut self, name: &str, source: &str, root: &str) -> Result<u32, EngineError> {
        // Validate through the complete front end.
        let script = flowscript_core::parse(source)?;
        let expanded = flowscript_core::template::expand(script.clone())?;
        let checked = flowscript_core::sema::check(&expanded)?;
        schema::compile(&checked, root)?;
        // Store in canonical form (repository normal form).
        let versions = self.scripts.entry(name.to_string()).or_default();
        versions.push(ScriptVersion {
            source: script_fmt::format_script(&script),
            root: root.to_string(),
        });
        Ok(versions.len() as u32)
    }

    /// Fetches a script version (latest when `None`).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownScript`] for missing names or versions.
    pub fn get(&self, name: &str, version: Option<u32>) -> Result<&ScriptVersion, EngineError> {
        let versions = self
            .scripts
            .get(name)
            .ok_or_else(|| EngineError::UnknownScript(name.to_string()))?;
        let index = match version {
            None => versions.len() - 1,
            Some(v) if v >= 1 && (v as usize) <= versions.len() => (v - 1) as usize,
            Some(v) => {
                return Err(EngineError::UnknownScript(format!("{name} v{v}")));
            }
        };
        Ok(&versions[index])
    }

    /// Number of versions stored for `name`.
    pub fn version_count(&self, name: &str) -> u32 {
        self.scripts.get(name).map(|v| v.len() as u32).unwrap_or(0)
    }

    /// Names of all stored scripts.
    pub fn script_names(&self) -> Vec<String> {
        self.scripts.keys().cloned().collect()
    }
}

impl Node for Repository {
    type Timer = Infallible;
    type Call = Infallible;
    type Op = Infallible;
    type Answer = Infallible;

    fn node(&self) -> NodeId {
        self.node
    }

    fn handle(
        &mut self,
        _: SimTime,
        input: Input<Infallible, Infallible, Infallible>,
    ) -> Vec<Output<Infallible, Infallible, Infallible>> {
        let Input::Message {
            payload,
            token: Some(token),
            ..
        } = input
        else {
            return Vec::new();
        };
        let bare = |result: Result<u32, EngineError>| EngineMsg::RepoReply {
            result: result.map_err(|e| e.to_string()),
            source: String::new(),
            root: String::new(),
        };
        let reply = match flowscript_codec::from_bytes::<EngineMsg>(&payload) {
            Ok(EngineMsg::RepoRegister { name, source, root }) => {
                bare(self.register(&name, &source, &root))
            }
            Ok(EngineMsg::RepoGet { name, version }) => match self.get(&name, version) {
                Ok(stored) => EngineMsg::RepoReply {
                    result: Ok(version.unwrap_or_else(|| self.version_count(&name))),
                    source: stored.source.clone(),
                    root: stored.root.clone(),
                },
                Err(err) => bare(Err(err)),
            },
            _ => return Vec::new(),
        };
        let bytes = flowscript_codec::to_bytes(&reply);
        vec![Output::Reply { token, bytes }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowscript_core::samples;
    use flowscript_plan::Plan;
    use flowscript_sim::ReplyToken;

    fn repository() -> Repository {
        Repository::new(NodeId::from_index(0))
    }

    #[test]
    fn register_validates_and_versions() {
        let mut repo = repository();
        let v1 = repo
            .register(
                "order",
                samples::ORDER_PROCESSING,
                "processOrderApplication",
            )
            .unwrap();
        assert_eq!(v1, 1);
        let v2 = repo
            .register(
                "order",
                samples::ORDER_PROCESSING,
                "processOrderApplication",
            )
            .unwrap();
        assert_eq!(v2, 2);
        assert_eq!(repo.version_count("order"), 2);
        assert_eq!(repo.script_names(), vec!["order".to_string()]);
    }

    #[test]
    fn register_rejects_invalid_scripts() {
        let mut repo = repository();
        let err = repo.register("bad", "class ;;", "x").unwrap_err();
        assert!(matches!(err, EngineError::InvalidScript(_)));
        // Valid script, wrong root.
        let err = repo
            .register("order", samples::ORDER_PROCESSING, "ghost")
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidScript(_)));
    }

    #[test]
    fn get_latest_and_specific_versions() {
        let mut repo = repository();
        repo.register("s", samples::QUICKSTART, "pipeline").unwrap();
        repo.register("s", samples::FIG1_DIAMOND, "diamond")
            .unwrap();
        assert_eq!(repo.get("s", None).unwrap().root, "diamond");
        assert_eq!(repo.get("s", Some(1)).unwrap().root, "pipeline");
        assert!(repo.get("s", Some(3)).is_err());
        assert!(repo.get("missing", None).is_err());
    }

    /// The stored canonical text is the script: what a coordinator
    /// compiles from it is what the submitted text compiles to.
    #[test]
    fn every_sample_compiles_from_its_canonical_text_as_submitted() {
        let mut repo = repository();
        for (name, source) in samples::all() {
            let root = samples::root_of(name);
            repo.register(name, source, root).unwrap();
            let stored = repo.get(name, None).unwrap();
            assert_ne!(stored.source, source, "{name} is stored reformatted");
            let lowered = |text: &str| Plan::lower(&schema::compile_source(text, root).unwrap());
            assert_eq!(lowered(&stored.source), lowered(source), "{name}");
        }
    }

    /// The repository needs no world to run: fed requests by hand, it
    /// answers each with one reply through its token.
    #[test]
    fn every_get_serves_the_stored_version() {
        let mut repo = repository();
        repo.register("d", samples::FIG1_DIAMOND, "diamond")
            .unwrap();
        let client = NodeId::from_index(1);
        let get = flowscript_codec::to_bytes(&EngineMsg::RepoGet {
            name: "d".into(),
            version: None,
        });
        let mut deliver = |token| {
            let payload = get.clone();
            let message = Input::Message {
                from: client,
                payload,
                token,
            };
            repo.handle(SimTime::ZERO, message)
        };
        let served: Vec<EngineMsg> = (0..2)
            .map(|call| {
                let token = ReplyToken::new(NodeId::from_index(0), client, call);
                let [Output::Reply { bytes, .. }] = &deliver(Some(token))[..] else {
                    panic!("one reply per request");
                };
                flowscript_codec::from_bytes(bytes).expect("an engine message")
            })
            .collect();
        // A one-way message is not a request: nothing to answer.
        assert!(deliver(None).is_empty());
        let stored = repo.get("d", None).unwrap();
        let reply = EngineMsg::RepoReply {
            result: Ok(1),
            source: stored.source.clone(),
            root: stored.root.clone(),
        };
        assert_eq!(served, vec![reply; 2]);
    }

    #[test]
    fn stored_source_is_canonical() {
        let mut repo = repository();
        repo.register("q", samples::QUICKSTART, "pipeline").unwrap();
        let stored = repo.get("q", None).unwrap();
        // Canonical form re-parses and re-formats to itself.
        let script = flowscript_core::parse(&stored.source).unwrap();
        assert_eq!(script_fmt::format_script(&script), stored.source);
    }
}
