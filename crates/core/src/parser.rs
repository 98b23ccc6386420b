//! Recursive-descent parser with multi-error recovery.
//!
//! The concrete syntax follows the paper's listings. Separators are
//! semicolons; the parser is lenient about trailing semicolons (the paper
//! itself is inconsistent) and accepts the §4.5 shorthand
//! `i1 of task t2 if output success` inside input sets as sugar for an
//! `inputobject … from { … }` with a single source.

use crate::ast::*;
use crate::diag::{Diagnostic, Diagnostics};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Parses a complete script.
///
/// # Errors
///
/// Returns every lexical and syntactic problem found; the parser recovers
/// at `;`/`}` boundaries so one error does not hide the rest.
///
/// ```
/// let script = flowscript_core::parse("class Account;")?;
/// assert_eq!(script.items.len(), 1);
/// # Ok::<(), flowscript_core::Diagnostics>(())
/// ```
pub fn parse(source: &str) -> Result<Script, Diagnostics> {
    let tokens = lex(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        diags: Diagnostics::new(),
    };
    let script = parser.script();
    if parser.diags.has_errors() {
        Err(parser.diags)
    } else {
        Ok(script)
    }
}

/// Parses a single `task … of taskclass … { … }` declaration — the
/// fragment form used by dynamic reconfiguration (adding a task to a
/// *running* instance, paper §2).
///
/// # Errors
///
/// Lexical/syntactic diagnostics, or an error if the fragment is not
/// exactly one task declaration.
pub fn parse_task_decl(source: &str) -> Result<TaskDecl, Diagnostics> {
    let script = parse(source)?;
    let mut tasks: Vec<TaskDecl> = script
        .items
        .into_iter()
        .filter_map(|item| match item {
            Item::Task(task) => Some(task),
            _ => None,
        })
        .collect();
    if tasks.len() != 1 {
        let mut diags = Diagnostics::new();
        diags.push(Diagnostic::error_global(format!(
            "expected exactly one task declaration, found {}",
            tasks.len()
        )));
        return Err(diags);
    }
    Ok(tasks.remove(0))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    diags: Diagnostics,
}

/// Internal sentinel: an error was already recorded; recover upward.
struct Recover;

type PResult<T> = Result<T, Recover>;

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        let idx = (self.pos + 1).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    /// Consumes the current token. Nothing reads a token behind `pos`,
    /// so it moves out, its name with it; the final `Eof` stays put.
    fn bump(&mut self) -> Token {
        if self.pos == self.tokens.len() - 1 {
            return self.tokens[self.pos].clone();
        }
        let consumed = &mut self.tokens[self.pos];
        let kind = std::mem::replace(&mut consumed.kind, TokenKind::Eof);
        let span = consumed.span;
        self.pos += 1;
        Token { kind, span }
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> PResult<Token> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            self.diags.push(Diagnostic::error(
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek().describe()
                ),
                self.span(),
            ));
            Err(Recover)
        }
    }

    fn ident(&mut self) -> PResult<Ident> {
        match self.peek() {
            TokenKind::Ident(_) => {
                let token = self.bump();
                let TokenKind::Ident(name) = token.kind else {
                    unreachable!("peeked ident");
                };
                Ok(Ident {
                    name,
                    span: token.span,
                })
            }
            other => {
                self.diags.push(Diagnostic::error(
                    format!("expected identifier, found {}", other.describe()),
                    self.span(),
                ));
                Err(Recover)
            }
        }
    }

    fn string(&mut self) -> PResult<String> {
        match self.peek() {
            TokenKind::Str(_) => {
                let token = self.bump();
                let TokenKind::Str(text) = token.kind else {
                    unreachable!("peeked string");
                };
                Ok(text)
            }
            other => {
                self.diags.push(Diagnostic::error(
                    format!("expected string literal, found {}", other.describe()),
                    self.span(),
                ));
                Err(Recover)
            }
        }
    }

    /// Skips to the next `;` at brace depth 0 (consuming it) or to a `}`
    /// (not consuming), for recovery inside blocks.
    fn sync_element(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::Eof => return,
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                    self.bump();
                }
                TokenKind::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Skips to the start of the next plausible top-level item.
    fn sync_item(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::Eof => return,
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    depth = depth.saturating_sub(1);
                    self.bump();
                }
                TokenKind::Class
                | TokenKind::TaskClass
                | TokenKind::Task
                | TokenKind::CompoundTask
                | TokenKind::TaskTemplate
                    if depth == 0 =>
                {
                    return;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn script(&mut self) -> Script {
        let mut items = Vec::new();
        loop {
            while self.eat(&TokenKind::Semi) {}
            if self.at(&TokenKind::Eof) {
                break;
            }
            match self.item() {
                Ok(item) => items.push(item),
                Err(Recover) => self.sync_item(),
            }
        }
        Script { items }
    }

    fn item(&mut self) -> PResult<Item> {
        match self.peek() {
            TokenKind::Class => self.class_decl().map(Item::Class),
            TokenKind::TaskClass => self.taskclass_decl().map(Item::TaskClass),
            TokenKind::Task => self.task_decl().map(Item::Task),
            TokenKind::CompoundTask => self.compound_decl().map(Item::Compound),
            TokenKind::TaskTemplate => self.template_decl().map(Item::Template),
            TokenKind::Ident(_) if matches!(self.peek2(), TokenKind::Of) => {
                self.template_instance().map(Item::TemplateInstance)
            }
            other => {
                self.diags.push(Diagnostic::error(
                    format!("expected a declaration, found {}", other.describe()),
                    self.span(),
                ));
                Err(Recover)
            }
        }
    }

    fn class_decl(&mut self) -> PResult<ClassDecl> {
        let start = self.span();
        self.expect(&TokenKind::Class)?;
        let name = self.ident()?;
        self.expect(&TokenKind::Semi)?;
        Ok(ClassDecl {
            name,
            span: start.merge(self.prev_span()),
        })
    }

    fn taskclass_decl(&mut self) -> PResult<TaskClassDecl> {
        let start = self.span();
        self.expect(&TokenKind::TaskClass)?;
        let name = self.ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut input_sets = Vec::new();
        let mut outputs = Vec::new();
        loop {
            while self.eat(&TokenKind::Semi) {}
            match self.peek() {
                TokenKind::Inputs => {
                    self.bump();
                    self.expect(&TokenKind::LBrace)?;
                    self.separated_until_rbrace(|p| {
                        let set = p.input_set_sig()?;
                        input_sets.push(set);
                        Ok(())
                    });
                    self.expect(&TokenKind::RBrace)?;
                }
                TokenKind::Outputs => {
                    self.bump();
                    self.expect(&TokenKind::LBrace)?;
                    self.separated_until_rbrace(|p| {
                        let output = p.output_sig()?;
                        outputs.push(output);
                        Ok(())
                    });
                    self.expect(&TokenKind::RBrace)?;
                }
                TokenKind::RBrace => break,
                other => {
                    self.diags.push(Diagnostic::error(
                        format!(
                            "expected `inputs`, `outputs` or `}}` in taskclass body, found {}",
                            other.describe()
                        ),
                        self.span(),
                    ));
                    return Err(Recover);
                }
            }
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(TaskClassDecl {
            name,
            input_sets,
            outputs,
            span: start.merge(self.prev_span()),
        })
    }

    /// Runs `element` repeatedly, separated by `;`, until a `}`.
    /// Recovers inside elements.
    fn separated_until_rbrace(&mut self, mut element: impl FnMut(&mut Self) -> PResult<()>) {
        loop {
            while self.eat(&TokenKind::Semi) {}
            if self.at(&TokenKind::RBrace) || self.at(&TokenKind::Eof) {
                return;
            }
            if element(self).is_err() {
                self.sync_element();
            }
        }
    }

    fn input_set_sig(&mut self) -> PResult<InputSetSig> {
        self.expect(&TokenKind::Input)?;
        let name = self.ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut objects = Vec::new();
        self.separated_until_rbrace(|p| {
            let sig = p.object_sig()?;
            objects.push(sig);
            Ok(())
        });
        self.expect(&TokenKind::RBrace)?;
        Ok(InputSetSig { name, objects })
    }

    fn object_sig(&mut self) -> PResult<ObjectSig> {
        let name = self.ident()?;
        self.expect(&TokenKind::Of)?;
        self.expect(&TokenKind::Class)?;
        let class = self.ident()?;
        Ok(ObjectSig { name, class })
    }

    fn output_kind(&mut self) -> PResult<OutputKind> {
        match self.peek() {
            TokenKind::Outcome => {
                self.bump();
                Ok(OutputKind::Outcome)
            }
            TokenKind::Abort => {
                self.bump();
                self.expect(&TokenKind::Outcome)?;
                Ok(OutputKind::AbortOutcome)
            }
            TokenKind::Repeat => {
                self.bump();
                self.expect(&TokenKind::Outcome)?;
                Ok(OutputKind::RepeatOutcome)
            }
            TokenKind::Mark => {
                self.bump();
                Ok(OutputKind::Mark)
            }
            other => {
                self.diags.push(Diagnostic::error(
                    format!(
                        "expected `outcome`, `abort outcome`, `repeat outcome` or `mark`, found {}",
                        other.describe()
                    ),
                    self.span(),
                ));
                Err(Recover)
            }
        }
    }

    fn output_sig(&mut self) -> PResult<OutputSig> {
        let kind = self.output_kind()?;
        let name = self.ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut objects = Vec::new();
        self.separated_until_rbrace(|p| {
            let sig = p.object_sig()?;
            objects.push(sig);
            Ok(())
        });
        self.expect(&TokenKind::RBrace)?;
        Ok(OutputSig {
            kind,
            name,
            objects,
        })
    }

    fn task_decl(&mut self) -> PResult<TaskDecl> {
        let start = self.span();
        self.expect(&TokenKind::Task)?;
        let name = self.ident()?;
        self.expect(&TokenKind::Of)?;
        self.expect(&TokenKind::TaskClass)?;
        let class = self.ident()?;
        self.expect(&TokenKind::LBrace)?;
        let (implementation, input_sets) = self.task_body()?;
        self.expect(&TokenKind::RBrace)?;
        Ok(TaskDecl {
            name,
            class,
            implementation,
            input_sets,
            span: start.merge(self.prev_span()),
        })
    }

    /// Parses `implementation {…}` and `inputs {…}` clauses in any order.
    fn task_body(&mut self) -> PResult<(Vec<ImplPair>, Vec<InputSetBinding>)> {
        let mut implementation = Vec::new();
        let mut input_sets = Vec::new();
        loop {
            while self.eat(&TokenKind::Semi) {}
            match self.peek() {
                TokenKind::Implementation => {
                    self.bump();
                    self.expect(&TokenKind::LBrace)?;
                    self.separated_until_rbrace(|p| {
                        let key = p.string()?;
                        p.expect(&TokenKind::Is)?;
                        let value = p.string()?;
                        implementation.push(ImplPair { key, value });
                        Ok(())
                    });
                    self.expect(&TokenKind::RBrace)?;
                }
                TokenKind::Inputs => {
                    self.bump();
                    self.expect(&TokenKind::LBrace)?;
                    self.separated_until_rbrace(|p| {
                        let binding = p.input_set_binding()?;
                        input_sets.push(binding);
                        Ok(())
                    });
                    self.expect(&TokenKind::RBrace)?;
                }
                _ => break,
            }
        }
        Ok((implementation, input_sets))
    }

    fn input_set_binding(&mut self) -> PResult<InputSetBinding> {
        self.expect(&TokenKind::Input)?;
        let name = self.ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut elements = Vec::new();
        self.separated_until_rbrace(|p| {
            let element = p.input_elem()?;
            elements.push(element);
            Ok(())
        });
        self.expect(&TokenKind::RBrace)?;
        Ok(InputSetBinding { name, elements })
    }

    fn input_elem(&mut self) -> PResult<InputElem> {
        match self.peek() {
            TokenKind::InputObject => {
                self.bump();
                let name = self.ident()?;
                self.expect(&TokenKind::From)?;
                self.expect(&TokenKind::LBrace)?;
                let mut sources = Vec::new();
                self.separated_until_rbrace(|p| {
                    let source = p.object_source()?;
                    sources.push(source);
                    Ok(())
                });
                self.expect(&TokenKind::RBrace)?;
                Ok(InputElem::Object(ObjectBinding { name, sources }))
            }
            TokenKind::Notification => {
                self.bump();
                self.expect(&TokenKind::From)?;
                self.expect(&TokenKind::LBrace)?;
                let mut sources = Vec::new();
                self.separated_until_rbrace(|p| {
                    let source = p.notif_source()?;
                    sources.push(source);
                    Ok(())
                });
                self.expect(&TokenKind::RBrace)?;
                Ok(InputElem::Notification(NotificationBinding { sources }))
            }
            // §4.5 shorthand: `i1 of task t2 if output success`.
            TokenKind::Ident(_) => {
                let source = self.object_source()?;
                let name = source.object.clone();
                Ok(InputElem::Object(ObjectBinding {
                    name,
                    sources: vec![source],
                }))
            }
            other => {
                self.diags.push(Diagnostic::error(
                    format!(
                        "expected `inputobject`, `notification` or an object shorthand, found {}",
                        other.describe()
                    ),
                    self.span(),
                ));
                Err(Recover)
            }
        }
    }

    fn object_source(&mut self) -> PResult<ObjectSource> {
        let object = self.ident()?;
        self.expect(&TokenKind::Of)?;
        self.expect(&TokenKind::Task)?;
        let task = self.ident()?;
        let cond = self.source_cond()?;
        Ok(ObjectSource { object, task, cond })
    }

    fn source_cond(&mut self) -> PResult<SourceCond> {
        if !self.eat(&TokenKind::If) {
            return Ok(SourceCond::Any);
        }
        match self.peek() {
            TokenKind::Input => {
                self.bump();
                Ok(SourceCond::Input(self.ident()?))
            }
            TokenKind::Output => {
                self.bump();
                Ok(SourceCond::Output(self.ident()?))
            }
            other => {
                self.diags.push(Diagnostic::error(
                    format!(
                        "expected `input` or `output` after `if`, found {}",
                        other.describe()
                    ),
                    self.span(),
                ));
                Err(Recover)
            }
        }
    }

    fn notif_source(&mut self) -> PResult<NotifSource> {
        self.expect(&TokenKind::Task)?;
        let task = self.ident()?;
        self.expect(&TokenKind::If)?;
        self.expect(&TokenKind::Output)?;
        let outcome = self.ident()?;
        Ok(NotifSource { task, outcome })
    }

    fn compound_decl(&mut self) -> PResult<CompoundTaskDecl> {
        let start = self.span();
        self.expect(&TokenKind::CompoundTask)?;
        let name = self.ident()?;
        self.expect(&TokenKind::Of)?;
        self.expect(&TokenKind::TaskClass)?;
        let class = self.ident()?;
        self.expect(&TokenKind::LBrace)?;

        let mut input_sets = Vec::new();
        let mut constituents = Vec::new();
        let mut outputs = Vec::new();

        loop {
            while self.eat(&TokenKind::Semi) {}
            match self.peek() {
                TokenKind::Inputs => {
                    self.bump();
                    self.expect(&TokenKind::LBrace)?;
                    self.separated_until_rbrace(|p| {
                        let binding = p.input_set_binding()?;
                        input_sets.push(binding);
                        Ok(())
                    });
                    self.expect(&TokenKind::RBrace)?;
                }
                TokenKind::Task => {
                    let task = self.task_decl()?;
                    constituents.push(Constituent::Task(task));
                }
                TokenKind::CompoundTask => {
                    let compound = self.compound_decl()?;
                    constituents.push(Constituent::Compound(compound));
                }
                TokenKind::Ident(_) if matches!(self.peek2(), TokenKind::Of) => {
                    let instance = self.template_instance()?;
                    constituents.push(Constituent::TemplateInstance(instance));
                }
                TokenKind::Outputs => {
                    self.bump();
                    self.expect(&TokenKind::LBrace)?;
                    self.separated_until_rbrace(|p| {
                        let mapping = p.output_mapping()?;
                        outputs.push(mapping);
                        Ok(())
                    });
                    self.expect(&TokenKind::RBrace)?;
                }
                TokenKind::RBrace => break,
                other => {
                    self.diags.push(Diagnostic::error(
                        format!(
                            "expected constituent task, `inputs`, `outputs` or `}}`, found {}",
                            other.describe()
                        ),
                        self.span(),
                    ));
                    return Err(Recover);
                }
            }
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(CompoundTaskDecl {
            name,
            class,
            input_sets,
            constituents,
            outputs,
            span: start.merge(self.prev_span()),
        })
    }

    fn output_mapping(&mut self) -> PResult<OutputMapping> {
        let kind = self.output_kind()?;
        let name = self.ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut elements = Vec::new();
        self.separated_until_rbrace(|p| {
            let element = p.output_elem()?;
            elements.push(element);
            Ok(())
        });
        self.expect(&TokenKind::RBrace)?;
        Ok(OutputMapping {
            kind,
            name,
            elements,
        })
    }

    fn output_elem(&mut self) -> PResult<OutputElem> {
        match self.peek() {
            TokenKind::OutputObject => {
                self.bump();
                let name = self.ident()?;
                self.expect(&TokenKind::From)?;
                self.expect(&TokenKind::LBrace)?;
                let mut sources = Vec::new();
                self.separated_until_rbrace(|p| {
                    let source = p.object_source()?;
                    sources.push(source);
                    Ok(())
                });
                self.expect(&TokenKind::RBrace)?;
                Ok(OutputElem::Object(ObjectBinding { name, sources }))
            }
            TokenKind::Notification => {
                self.bump();
                self.expect(&TokenKind::From)?;
                self.expect(&TokenKind::LBrace)?;
                let mut sources = Vec::new();
                self.separated_until_rbrace(|p| {
                    let source = p.notif_source()?;
                    sources.push(source);
                    Ok(())
                });
                self.expect(&TokenKind::RBrace)?;
                Ok(OutputElem::Notification(NotificationBinding { sources }))
            }
            other => {
                self.diags.push(Diagnostic::error(
                    format!(
                        "expected `outputobject` or `notification`, found {}",
                        other.describe()
                    ),
                    self.span(),
                ));
                Err(Recover)
            }
        }
    }

    fn template_decl(&mut self) -> PResult<TemplateDecl> {
        let start = self.span();
        self.expect(&TokenKind::TaskTemplate)?;
        // The paper writes `tasktemplate task name …`; the `task` keyword
        // is tolerated but not required.
        self.eat(&TokenKind::Task);
        let name = self.ident()?;
        self.expect(&TokenKind::Of)?;
        self.expect(&TokenKind::TaskClass)?;
        let class = self.ident()?;
        self.expect(&TokenKind::LBrace)?;

        let mut params = Vec::new();
        loop {
            while self.eat(&TokenKind::Semi) {}
            if self.at(&TokenKind::Parameters) {
                self.bump();
                self.expect(&TokenKind::LBrace)?;
                loop {
                    while self.eat(&TokenKind::Semi) || self.eat(&TokenKind::Comma) {}
                    if self.at(&TokenKind::RBrace) || self.at(&TokenKind::Eof) {
                        break;
                    }
                    params.push(self.ident()?);
                }
                self.expect(&TokenKind::RBrace)?;
            } else {
                break;
            }
        }
        let (implementation, input_sets) = self.task_body()?;
        self.expect(&TokenKind::RBrace)?;
        Ok(TemplateDecl {
            name,
            class,
            params,
            implementation,
            input_sets,
            span: start.merge(self.prev_span()),
        })
    }

    fn template_instance(&mut self) -> PResult<TemplateInstanceDecl> {
        let start = self.span();
        let name = self.ident()?;
        self.expect(&TokenKind::Of)?;
        self.expect(&TokenKind::TaskTemplate)?;
        let template = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        loop {
            while self.eat(&TokenKind::Comma) {}
            if self.at(&TokenKind::RParen) || self.at(&TokenKind::Eof) {
                break;
            }
            args.push(self.ident()?);
        }
        self.expect(&TokenKind::RParen)?;
        Ok(TemplateInstanceDecl {
            name,
            template,
            args,
            span: start.merge(self.prev_span()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(source: &str) -> Script {
        match parse(source) {
            Ok(script) => script,
            Err(diags) => panic!("parse failed:\n{}", diags.render(source)),
        }
    }

    #[test]
    fn parses_classes() {
        let script = parse_ok("class AlarmsSource;\nclass FaultReport;");
        assert_eq!(script.classes().count(), 2);
    }

    #[test]
    fn parses_taskclass_with_all_output_kinds() {
        let script = parse_ok(
            r#"
            taskclass T {
                inputs {
                    input main { item of class Item; account of class Account };
                    input alt { timer of class Timer }
                };
                outputs {
                    outcome done { note of class Note };
                    abort outcome failed { };
                    repeat outcome again { hint of class Hint };
                    mark progress { cost of class Cost }
                }
            }
            "#,
        );
        let tc = script.find_task_class("T").unwrap();
        assert_eq!(tc.input_sets.len(), 2);
        assert_eq!(tc.input_sets[0].objects.len(), 2);
        assert_eq!(tc.outputs.len(), 4);
        assert_eq!(tc.outputs[0].kind, OutputKind::Outcome);
        assert_eq!(tc.outputs[1].kind, OutputKind::AbortOutcome);
        assert_eq!(tc.outputs[2].kind, OutputKind::RepeatOutcome);
        assert_eq!(tc.outputs[3].kind, OutputKind::Mark);
        assert!(tc.is_atomic());
    }

    #[test]
    fn parses_task_with_alternative_sources() {
        let script = parse_ok(
            r#"
            task t1 of taskclass tc1 {
                implementation { "code" is "impl1" };
                inputs {
                    input main {
                        inputobject i1 from {
                            i3 of task t2 if input main;
                            o1 of task t3 if output oc1;
                            o2 of task t3 if output oc2
                        };
                        inputobject i2 from {
                            o1 of task t4 if output oc1
                        }
                    }
                }
            }
            "#,
        );
        let Item::Task(task) = &script.items[0] else {
            panic!("expected task");
        };
        assert_eq!(task.implementation[0].key, "code");
        assert_eq!(task.implementation[0].value, "impl1");
        let InputElem::Object(binding) = &task.input_sets[0].elements[0] else {
            panic!("expected object binding");
        };
        assert_eq!(binding.sources.len(), 3);
        assert_eq!(
            binding.sources[0].cond,
            SourceCond::Input(Ident::synthetic("main"))
        );
        assert_eq!(
            binding.sources[1].cond,
            SourceCond::Output(Ident::synthetic("oc1"))
        );
    }

    #[test]
    fn parses_notifications_with_alternatives() {
        let script = parse_ok(
            r#"
            task t1 of taskclass tc1 {
                inputs {
                    input main {
                        notification from {
                            task t2 if output oc1;
                            task t3 if output oc1
                        };
                        notification from {
                            task t2 if output oc2;
                            task t4 if output oc2
                        }
                    }
                }
            }
            "#,
        );
        let Item::Task(task) = &script.items[0] else {
            panic!("expected task");
        };
        assert_eq!(task.input_sets[0].elements.len(), 2);
    }

    #[test]
    fn parses_unconditioned_source() {
        let script = parse_ok(
            r#"
            task sir of taskclass SIR {
                inputs {
                    input main {
                        inputobject reports from {
                            reports of task analysis
                        }
                    }
                }
            }
            "#,
        );
        let Item::Task(task) = &script.items[0] else {
            panic!()
        };
        let InputElem::Object(binding) = &task.input_sets[0].elements[0] else {
            panic!()
        };
        assert_eq!(binding.sources[0].cond, SourceCond::Any);
    }

    #[test]
    fn parses_compound_with_outputs() {
        let script = parse_ok(
            r#"
            compoundtask c of taskclass C {
                task a of taskclass A {
                    inputs {
                        input main {
                            inputobject x from { x of task c if input main }
                        }
                    }
                };
                outputs {
                    outcome done {
                        outputobject y from { y of task a if output finished };
                        notification from { task a if output finished }
                    };
                    outcome failed { }
                }
            }
            "#,
        );
        let Item::Compound(compound) = &script.items[0] else {
            panic!("expected compound");
        };
        assert_eq!(compound.constituents.len(), 1);
        assert_eq!(compound.outputs.len(), 2);
        assert_eq!(compound.outputs[0].elements.len(), 2);
        assert!(compound.constituent("a").is_some());
    }

    #[test]
    fn parses_template_and_instance() {
        let script = parse_ok(
            r#"
            tasktemplate task tt of taskclass tc {
                parameters { p1; p2 };
                implementation { "code" is "x" };
                inputs {
                    input main {
                        i1 of task p1 if output success;
                        i2 of task p2 if input main
                    }
                }
            }
            myTask of tasktemplate tt(alpha, beta)
            "#,
        );
        let Item::Template(template) = &script.items[0] else {
            panic!("expected template");
        };
        assert_eq!(template.params.len(), 2);
        // Shorthand input elements become object bindings.
        assert_eq!(template.input_sets[0].elements.len(), 2);
        let Item::TemplateInstance(instance) = &script.items[1] else {
            panic!("expected instance");
        };
        assert_eq!(instance.template.as_str(), "tt");
        assert_eq!(instance.args.len(), 2);
    }

    #[test]
    fn recovers_and_reports_multiple_errors() {
        let err = parse(
            r#"
            class ;
            class Ok;
            task t1 of oops T { }
            taskclass T2 { inputs { input main { x of class C } } }
            "#,
        )
        .unwrap_err();
        assert!(err.errors().count() >= 2, "got: {err}");
    }

    #[test]
    fn error_message_points_at_token() {
        let err = parse("task t1 of taskclass { }").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("expected identifier"), "got: {text}");
    }

    #[test]
    fn empty_script_is_valid() {
        let script = parse_ok("  \n // nothing\n");
        assert!(script.items.is_empty());
    }

    #[test]
    fn stray_semicolons_tolerated() {
        let script = parse_ok(";;class A;;;class B;;");
        assert_eq!(script.classes().count(), 2);
    }
}
