//! The SQL tokenizer.

use fto_common::{FtoError, Result};

/// A lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Identifier or keyword (lower-cased).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Single-quoted string literal (unescaped).
    Str(String),
    /// A punctuation or operator symbol.
    Symbol(&'static str),
}

impl Token {
    /// The identifier text, if this is an identifier.
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            Token::Ident(s) => Some(s),
            _ => None,
        }
    }
}

/// Tokenizes SQL text.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' | ')' | ',' | '*' | '+' | '-' | '/' | '.' => {
                tokens.push(Token::Symbol(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '*' => "*",
                    '+' => "+",
                    '-' => "-",
                    '/' => "/",
                    _ => ".",
                }));
                i += 1;
            }
            '=' => {
                tokens.push(Token::Symbol("="));
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Symbol("<="));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token::Symbol("<>"));
                    i += 2;
                } else {
                    tokens.push(Token::Symbol("<"));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Symbol(">="));
                    i += 2;
                } else {
                    tokens.push(Token::Symbol(">"));
                    i += 1;
                }
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token::Symbol("<>"));
                i += 2;
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(FtoError::Parse("unterminated string literal".into()));
                }
                tokens.push(Token::Str(input[start..j].to_string()));
                i = j + 1;
            }
            '0'..='9' => {
                let start = i;
                let mut j = i;
                let mut is_float = false;
                while j < bytes.len() {
                    match bytes[j] as char {
                        '0'..='9' => j += 1,
                        '.' if !is_float
                            && bytes.get(j + 1).is_some_and(|b| b.is_ascii_digit()) =>
                        {
                            is_float = true;
                            j += 1;
                        }
                        _ => break,
                    }
                }
                // Exponent: `e`/`E`, an optional sign, then digits.
                if matches!(bytes.get(j), Some(b'e' | b'E')) {
                    let digits_at =
                        j + 1 + usize::from(matches!(bytes.get(j + 1), Some(b'+' | b'-')));
                    if bytes.get(digits_at).is_some_and(|b| b.is_ascii_digit()) {
                        is_float = true;
                        j = digits_at;
                        while bytes.get(j).is_some_and(|b| b.is_ascii_digit()) {
                            j += 1;
                        }
                    }
                }
                let text = &input[start..j];
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| FtoError::Parse(format!("bad number '{text}'")))?;
                    if !v.is_finite() {
                        return Err(FtoError::Parse(format!(
                            "numeric literal '{text}' is out of range"
                        )));
                    }
                    tokens.push(Token::Float(v));
                } else {
                    tokens
                        .push(Token::Int(text.parse().map_err(|_| {
                            FtoError::Parse(format!("bad number '{text}'"))
                        })?));
                }
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len() {
                    let c = bytes[j] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(input[start..j].to_ascii_lowercase()));
                i = j;
            }
            other => {
                return Err(FtoError::Parse(format!("unexpected character '{other}'")));
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_query() {
        let t = tokenize("SELECT a.x, 10 FROM t WHERE a.x <= 'hi'").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Ident("select".into()),
                Token::Ident("a".into()),
                Token::Symbol("."),
                Token::Ident("x".into()),
                Token::Symbol(","),
                Token::Int(10),
                Token::Ident("from".into()),
                Token::Ident("t".into()),
                Token::Ident("where".into()),
                Token::Ident("a".into()),
                Token::Symbol("."),
                Token::Ident("x".into()),
                Token::Symbol("<="),
                Token::Str("hi".into()),
            ]
        );
    }

    #[test]
    fn numbers() {
        let t = tokenize("1 2.5 0.01").unwrap();
        assert_eq!(
            t,
            vec![Token::Int(1), Token::Float(2.5), Token::Float(0.01)]
        );
    }

    #[test]
    fn exponent_literals() {
        let t = tokenize("1e308 1.5e3 2E-5 7e+2").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Float(1e308),
                Token::Float(1500.0),
                Token::Float(2e-5),
                Token::Float(700.0),
            ]
        );
        // An `e` not followed by exponent digits is not part of the number.
        let t = tokenize("2e x").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Int(2),
                Token::Ident("e".into()),
                Token::Ident("x".into())
            ]
        );
    }

    #[test]
    fn exponent_overflow_is_an_error() {
        let err = tokenize("1e309").unwrap_err();
        assert!(matches!(err, FtoError::Parse(_)), "{err:?}");
        assert!(err.to_string().contains("out of range"), "{err}");
        assert!(tokenize("-1.5e400").is_err());
    }

    #[test]
    fn operators() {
        let t = tokenize("= <> != < <= > >= + - * /").unwrap();
        let syms: Vec<&str> = t
            .iter()
            .map(|tok| match tok {
                Token::Symbol(s) => *s,
                _ => panic!(),
            })
            .collect();
        assert_eq!(
            syms,
            vec!["=", "<>", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/"]
        );
    }

    #[test]
    fn comments_and_whitespace() {
        let t = tokenize("select -- comment\n 1").unwrap();
        assert_eq!(t, vec![Token::Ident("select".into()), Token::Int(1)]);
    }

    #[test]
    fn errors() {
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("select #").is_err());
    }

    #[test]
    fn keywords_lowercased() {
        let t = tokenize("SeLeCt FROM").unwrap();
        assert_eq!(t[0].as_ident(), Some("select"));
        assert_eq!(t[1].as_ident(), Some("from"));
    }
}
