//! Hand-written lexer with spans, comments and curly-quote tolerance.
//!
//! The paper's listings were typeset with curly quotes (`“code”`); the
//! lexer accepts both those and straight `"` so the examples can be pasted
//! verbatim.

use crate::diag::{Diagnostic, Diagnostics};
use crate::span::{Pos, Span};
use crate::token::{Token, TokenKind};

/// Lexes `source` into tokens (always ending with [`TokenKind::Eof`]).
///
/// # Errors
///
/// Returns all lexical errors found (unterminated strings/comments,
/// stray characters); tokens before the first error are not returned.
pub fn lex(source: &str) -> Result<Vec<Token>, Diagnostics> {
    let mut lexer = Lexer::new(source);
    lexer.run();
    if lexer.diags.has_errors() {
        Err(lexer.diags)
    } else {
        Ok(lexer.tokens)
    }
}

struct Lexer<'a> {
    source: &'a str,
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    pos: Pos,
    tokens: Vec<Token>,
    diags: Diagnostics,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Self {
            source,
            chars: source.char_indices().peekable(),
            pos: Pos::START,
            tokens: Vec::new(),
            diags: Diagnostics::new(),
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().map(|(_, c)| *c)
    }

    fn bump(&mut self) -> Option<char> {
        let (offset, c) = self.chars.next()?;
        self.pos.offset = offset + c.len_utf8();
        if c == '\n' {
            self.pos.line += 1;
            self.pos.column = 1;
        } else {
            self.pos.column += 1;
        }
        Some(c)
    }

    fn run(&mut self) {
        loop {
            self.skip_trivia();
            let start = self.pos;
            let Some(c) = self.peek() else {
                self.tokens.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::new(start, start),
                });
                return;
            };
            match c {
                '{' => self.punct(TokenKind::LBrace),
                '}' => self.punct(TokenKind::RBrace),
                '(' => self.punct(TokenKind::LParen),
                ')' => self.punct(TokenKind::RParen),
                ';' => self.punct(TokenKind::Semi),
                ',' => self.punct(TokenKind::Comma),
                '"' | '\u{201C}' | '\u{201D}' => self.string(),
                c if c.is_alphabetic() || c == '_' => self.ident(),
                other => {
                    self.bump();
                    self.diags.push(Diagnostic::error(
                        format!("unexpected character `{other}`"),
                        Span::new(start, self.pos),
                    ));
                }
            }
        }
    }

    fn punct(&mut self, kind: TokenKind) {
        let start = self.pos;
        self.bump();
        self.tokens.push(Token {
            kind,
            span: Span::new(start, self.pos),
        });
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') => {
                    // Look ahead for a comment opener without consuming a
                    // lone slash.
                    let mut lookahead = self.chars.clone();
                    lookahead.next();
                    match lookahead.peek().map(|(_, c)| *c) {
                        Some('/') => {
                            while let Some(c) = self.peek() {
                                if c == '\n' {
                                    break;
                                }
                                self.bump();
                            }
                        }
                        Some('*') => {
                            let start = self.pos;
                            self.bump();
                            self.bump();
                            let mut closed = false;
                            while let Some(c) = self.bump() {
                                if c == '*' && self.peek() == Some('/') {
                                    self.bump();
                                    closed = true;
                                    break;
                                }
                            }
                            if !closed {
                                self.diags.push(Diagnostic::error(
                                    "unterminated block comment",
                                    Span::new(start, self.pos),
                                ));
                            }
                        }
                        _ => {
                            let start = self.pos;
                            self.bump();
                            self.diags.push(Diagnostic::error(
                                "unexpected character `/`",
                                Span::new(start, self.pos),
                            ));
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn string(&mut self) {
        let start = self.pos;
        let _open = self.bump().expect("string opener");
        let begin = self.pos.offset;
        let end = loop {
            match self.peek() {
                None | Some('\n') => {
                    self.diags.push(Diagnostic::error(
                        "unterminated string literal",
                        Span::new(start, self.pos),
                    ));
                    return;
                }
                Some('"') | Some('\u{201D}') | Some('\u{201C}') => {
                    let end = self.pos.offset;
                    self.bump();
                    break end;
                }
                Some(_) => {
                    self.bump();
                }
            }
        };
        // The paper sometimes has stray spaces inside quoted names
        // (`“ refPaymentAuthorisation”`); normalise them away.
        let text = self.source[begin..end].trim().to_string();
        self.tokens.push(Token {
            kind: TokenKind::Str(text),
            span: Span::new(start, self.pos),
        });
    }

    fn ident(&mut self) {
        let start = self.pos;
        let begin_offset = start.offset;
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                self.bump();
            } else {
                break;
            }
        }
        let text = &self.source[begin_offset..self.pos.offset];
        let kind = TokenKind::keyword(text).unwrap_or_else(|| TokenKind::Ident(text.to_string()));
        self.tokens.push(Token {
            kind,
            span: Span::new(start, self.pos),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(source: &str) -> Vec<TokenKind> {
        lex(source)
            .expect("lex ok")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_class_declaration() {
        assert_eq!(
            kinds("class Account;"),
            vec![
                TokenKind::Class,
                TokenKind::Ident("Account".into()),
                TokenKind::Semi,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn keywords_vs_identifiers() {
        assert_eq!(
            kinds("task tasks"),
            vec![
                TokenKind::Task,
                TokenKind::Ident("tasks".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_straight_and_curly() {
        assert_eq!(
            kinds(r#""code" is "SETPaymentCapture""#),
            vec![
                TokenKind::Str("code".into()),
                TokenKind::Is,
                TokenKind::Str("SETPaymentCapture".into()),
                TokenKind::Eof
            ]
        );
        // Curly quotes as the paper's PDF has them, with a stray space.
        assert_eq!(
            kinds("\u{201C}code\u{201D} is \u{201C} refDispatch\u{201D}"),
            vec![
                TokenKind::Str("code".into()),
                TokenKind::Is,
                TokenKind::Str("refDispatch".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let source = "class A; // trailing\n/* block\n comment */ class B;";
        assert_eq!(
            kinds(source),
            vec![
                TokenKind::Class,
                TokenKind::Ident("A".into()),
                TokenKind::Semi,
                TokenKind::Class,
                TokenKind::Ident("B".into()),
                TokenKind::Semi,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let tokens = lex("class\n  Account").unwrap();
        assert_eq!(tokens[0].span.start.line, 1);
        assert_eq!(tokens[0].span.start.column, 1);
        assert_eq!(tokens[1].span.start.line, 2);
        assert_eq!(tokens[1].span.start.column, 3);
    }

    #[test]
    fn unterminated_string_is_error() {
        let err = lex("\"oops").unwrap_err();
        assert!(err.has_errors());
        assert!(err.to_string().contains("unterminated string"));
    }

    #[test]
    fn unterminated_block_comment_is_error() {
        let err = lex("/* forever").unwrap_err();
        assert!(err.to_string().contains("unterminated block comment"));
    }

    #[test]
    fn stray_character_is_error() {
        let err = lex("class A; @").unwrap_err();
        assert!(err.to_string().contains("unexpected character `@`"));
    }

    #[test]
    fn lone_slash_is_error() {
        let err = lex("a / b").unwrap_err();
        assert!(err.to_string().contains("unexpected character `/`"));
    }

    #[test]
    fn empty_input_is_just_eof() {
        assert_eq!(kinds(""), vec![TokenKind::Eof]);
        assert_eq!(kinds("   \n\t "), vec![TokenKind::Eof]);
    }
}
