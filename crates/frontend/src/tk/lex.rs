//! Tokenizer for the `.tk` kernel DSL.
//!
//! Every token carries a full line **and column** span so parse and
//! lowering errors can point at the offending character with a caret
//! snippet (see [`crate::tk::TkError`]).

use crate::tk::error::TkError;
use std::fmt;

/// A lexical token of the kernel DSL.
#[derive(Clone, Debug, PartialEq)]
pub enum TkToken {
    Keyword(TkKeyword),
    /// Identifier (loop variable, parameter, array, or `let` name).
    Ident(String),
    Int(i64),
    Float(f64),
    Plus,
    Minus,
    Star,
    Slash,
    Equals,
    Comma,
    Semicolon,
    LParen,
    RParen,
    LBracket,
    RBracket,
    /// End of one logical line.
    Newline,
    Eof,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TkKeyword {
    Kernel,
    Param,
    Iter,
    To,
    Skew,
    Deps,
    Array,
    Let,
    Max,
    Min,
    /// `bnd` builtin: deterministic boundary hash of the original coordinates.
    Bnd,
    /// `mod` builtin: `rem_euclid` of an integer affine form.
    Mod,
}

impl fmt::Display for TkToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TkToken::Keyword(k) => write!(f, "{}", k.as_str()),
            TkToken::Ident(s) => write!(f, "{s}"),
            TkToken::Int(v) => write!(f, "{v}"),
            TkToken::Float(v) => write!(f, "{v}"),
            TkToken::Plus => write!(f, "+"),
            TkToken::Minus => write!(f, "-"),
            TkToken::Star => write!(f, "*"),
            TkToken::Slash => write!(f, "/"),
            TkToken::Equals => write!(f, "="),
            TkToken::Comma => write!(f, ","),
            TkToken::Semicolon => write!(f, ";"),
            TkToken::LParen => write!(f, "("),
            TkToken::RParen => write!(f, ")"),
            TkToken::LBracket => write!(f, "["),
            TkToken::RBracket => write!(f, "]"),
            TkToken::Newline => write!(f, "<newline>"),
            TkToken::Eof => write!(f, "<eof>"),
        }
    }
}

impl TkKeyword {
    pub fn as_str(&self) -> &'static str {
        match self {
            TkKeyword::Kernel => "kernel",
            TkKeyword::Param => "param",
            TkKeyword::Iter => "iter",
            TkKeyword::To => "to",
            TkKeyword::Skew => "skew",
            TkKeyword::Deps => "deps",
            TkKeyword::Array => "array",
            TkKeyword::Let => "let",
            TkKeyword::Max => "max",
            TkKeyword::Min => "min",
            TkKeyword::Bnd => "bnd",
            TkKeyword::Mod => "mod",
        }
    }
}

/// A token with its 1-based source position.
#[derive(Clone, Debug, PartialEq)]
pub struct TkSpanned {
    pub token: TkToken,
    pub line: usize,
    pub col: usize,
}

/// Tokenize the whole input. `#` starts a comment until end of line; blank
/// lines are collapsed; every non-empty line ends with a `Newline` token.
/// Columns are 1-based character (not byte) offsets.
pub fn tokenize(input: &str) -> Result<Vec<TkSpanned>, TkError> {
    let mut out = Vec::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = lineno + 1;
        let text = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        // Track the 1-based character column alongside byte indices.
        let cols: Vec<(usize, usize)> = text
            .char_indices()
            .enumerate()
            .map(|(ci, (bi, _))| (bi, ci + 1))
            .collect();
        let col_of = |byte: usize| -> usize {
            cols.iter()
                .find(|&&(b, _)| b == byte)
                .map_or(1, |&(_, c)| c)
        };
        let mut chars = text.char_indices().peekable();
        let mut emitted = false;
        while let Some(&(i, ch)) = chars.peek() {
            let col = col_of(i);
            match ch {
                c if c.is_whitespace() => {
                    chars.next();
                }
                c if c.is_ascii_digit() => {
                    let mut end = i;
                    let mut is_float = false;
                    while let Some(&(j, c2)) = chars.peek() {
                        if c2.is_ascii_digit() {
                            end = j;
                            chars.next();
                        } else if c2 == '.'
                            && text[j + 1..]
                                .chars()
                                .next()
                                .is_some_and(|n| n.is_ascii_digit())
                        {
                            is_float = true;
                            end = j;
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    let lit = &text[i..=end];
                    let token = if is_float {
                        // Overflow parses as `inf`; reject it like an
                        // overflowing integer literal.
                        let v = lit.parse::<f64>().ok().filter(|v| v.is_finite());
                        TkToken::Float(v.ok_or_else(|| {
                            TkError::new(line, col, format!("invalid float literal `{lit}`"))
                        })?)
                    } else {
                        TkToken::Int(lit.parse().map_err(|_| {
                            TkError::new(line, col, format!("invalid integer literal `{lit}`"))
                        })?)
                    };
                    out.push(TkSpanned { token, line, col });
                    emitted = true;
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let mut end = i;
                    while let Some(&(j, c2)) = chars.peek() {
                        if c2.is_ascii_alphanumeric() || c2 == '_' {
                            end = j;
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    let word = &text[i..=end];
                    let token = match word {
                        "kernel" => TkToken::Keyword(TkKeyword::Kernel),
                        "param" => TkToken::Keyword(TkKeyword::Param),
                        "iter" => TkToken::Keyword(TkKeyword::Iter),
                        "to" => TkToken::Keyword(TkKeyword::To),
                        "skew" => TkToken::Keyword(TkKeyword::Skew),
                        "deps" => TkToken::Keyword(TkKeyword::Deps),
                        "array" => TkToken::Keyword(TkKeyword::Array),
                        "let" => TkToken::Keyword(TkKeyword::Let),
                        "max" => TkToken::Keyword(TkKeyword::Max),
                        "min" => TkToken::Keyword(TkKeyword::Min),
                        "bnd" => TkToken::Keyword(TkKeyword::Bnd),
                        "mod" => TkToken::Keyword(TkKeyword::Mod),
                        _ => TkToken::Ident(word.to_string()),
                    };
                    out.push(TkSpanned { token, line, col });
                    emitted = true;
                }
                _ => {
                    chars.next();
                    let token = match ch {
                        '+' => TkToken::Plus,
                        '-' => TkToken::Minus,
                        '*' => TkToken::Star,
                        '/' => TkToken::Slash,
                        '=' => TkToken::Equals,
                        ',' => TkToken::Comma,
                        ';' => TkToken::Semicolon,
                        '(' => TkToken::LParen,
                        ')' => TkToken::RParen,
                        '[' => TkToken::LBracket,
                        ']' => TkToken::RBracket,
                        other => {
                            return Err(TkError::new(
                                line,
                                col,
                                format!("unexpected character `{other}`"),
                            ))
                        }
                    };
                    out.push(TkSpanned { token, line, col });
                    emitted = true;
                }
            }
        }
        if emitted {
            let col = cols.last().map_or(1, |&(_, c)| c + 1);
            out.push(TkSpanned {
                token: TkToken::Newline,
                line,
                col,
            });
        }
    }
    let (line, col) = out.last().map_or((1, 1), |s| (s.line, s.col));
    out.push(TkSpanned {
        token: TkToken::Eof,
        line,
        col,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<TkToken> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn tokenizes_for_line() {
        assert_eq!(
            toks("iter t = 1 to 10"),
            vec![
                TkToken::Keyword(TkKeyword::Iter),
                TkToken::Ident("t".into()),
                TkToken::Equals,
                TkToken::Int(1),
                TkToken::Keyword(TkKeyword::To),
                TkToken::Int(10),
                TkToken::Newline,
                TkToken::Eof,
            ]
        );
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        assert_eq!(
            toks("# a comment\n\nparam N = 5 # trailing\n"),
            vec![
                TkToken::Keyword(TkKeyword::Param),
                TkToken::Ident("N".into()),
                TkToken::Equals,
                TkToken::Int(5),
                TkToken::Newline,
                TkToken::Eof,
            ]
        );
    }

    #[test]
    fn bad_character_errors_with_line() {
        // Comment-only and blank lines still count towards the line number.
        let e = tokenize("kernel k\n# note\n\nA[t] = $").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains('$'), "{e}");
    }

    #[test]
    fn tokens_carry_columns() {
        let t = tokenize("iter t = 1 to T").unwrap();
        assert_eq!(t[0].token, TkToken::Keyword(TkKeyword::Iter));
        assert_eq!(t[0].col, 1);
        assert_eq!(t[1].token, TkToken::Ident("t".into()));
        assert_eq!(t[1].col, 6);
        assert_eq!(t[3].token, TkToken::Int(1));
        assert_eq!(t[3].col, 10);
    }

    #[test]
    fn comments_blank_lines_and_keywords() {
        let t = tokenize("# header\n\nkernel demo # name\n").unwrap();
        assert_eq!(t[0].token, TkToken::Keyword(TkKeyword::Kernel));
        assert_eq!(t[0].line, 3);
        assert_eq!(t[1].token, TkToken::Ident("demo".into()));
    }

    #[test]
    fn floats_and_operators() {
        let t = toks("A[t,i] = 0.25*(A[t-1,i+1])");
        assert!(t.contains(&TkToken::Float(0.25)));
        assert!(t.contains(&TkToken::LBracket));
        assert!(t.contains(&TkToken::Star));
    }

    #[test]
    fn bad_character_reports_line_and_col() {
        let e = tokenize("kernel k\nA[t] = @").unwrap_err();
        assert_eq!((e.line, e.col), (2, 8));
        assert!(e.message.contains('@'));
    }
}
