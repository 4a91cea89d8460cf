//! Token definitions for the kernel language.

use crate::error::Pos;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),

    // Keywords.
    KwAge,
    KwIndex,
    KwLocal,
    KwFetch,
    KwStore,
    KwTimer,
    KwFor,
    KwWhile,
    KwIf,
    KwElse,
    KwBreak,
    KwContinue,
    KwReturn,
    /// A scalar type keyword (`int32`, `float64`, `int`, `float`, ...).
    Type(p2g_field::ScalarType),

    // Punctuation.
    Colon,
    Semi,
    Comma,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    /// `%{` — start of a native code block.
    BlockOpen,
    /// `%}` — end of a native code block.
    BlockClose,
    Star, // `*` (also the wildcard subscript)
    Slash,
    Percent,
    Plus,
    Minus,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    AndAnd,
    OrOr,
    Not,
    PlusPlus,
    MinusMinus,
    Question,
    Eof,
}

impl Tok {
    /// Human-readable token name for diagnostics.
    pub(crate) fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier '{s}'"),
            Tok::Int(v) => format!("integer {v}"),
            Tok::Float(v) => format!("float {v}"),
            Tok::Str(s) => format!("string \"{s}\""),
            Tok::Type(t) => format!("type {t}"),
            Tok::Eof => "end of input".into(),
            other => format!("{other:?}"),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Spanned {
    pub tok: Tok,
    pub pos: Pos,
}

/// Map an identifier to a keyword token, if it is one.
pub fn keyword(s: &str) -> Option<Tok> {
    use p2g_field::ScalarType as S;
    Some(match s {
        "age" => Tok::KwAge,
        "index" => Tok::KwIndex,
        "local" => Tok::KwLocal,
        "fetch" => Tok::KwFetch,
        "store" => Tok::KwStore,
        "timer" => Tok::KwTimer,
        "for" => Tok::KwFor,
        "while" => Tok::KwWhile,
        "if" => Tok::KwIf,
        "else" => Tok::KwElse,
        "break" => Tok::KwBreak,
        "continue" => Tok::KwContinue,
        "return" => Tok::KwReturn,
        "uint8" => Tok::Type(S::U8),
        "int16" => Tok::Type(S::I16),
        "int32" | "int" => Tok::Type(S::I32),
        "int64" | "long" => Tok::Type(S::I64),
        "float32" | "float" => Tok::Type(S::F32),
        "float64" | "double" => Tok::Type(S::F64),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(keyword("fetch"), Some(Tok::KwFetch));
        assert_eq!(keyword("int"), Some(Tok::Type(p2g_field::ScalarType::I32)));
        assert_eq!(
            keyword("double"),
            Some(Tok::Type(p2g_field::ScalarType::F64))
        );
        assert_eq!(keyword("banana"), None);
    }

    /// The keyword table above is the one place a type keyword is parsed:
    /// every type's printed keyword lexes back to that type.
    #[test]
    fn every_scalar_keyword_lexes_to_its_type() {
        use p2g_field::ScalarType as S;
        for ty in [S::U8, S::I16, S::I32, S::I64, S::F32, S::F64] {
            let toks = crate::lexer::lex(ty.keyword()).unwrap();
            assert_eq!(toks[0].tok, Tok::Type(ty), "{}", ty.keyword());
        }
    }

    #[test]
    fn describe_is_informative() {
        assert!(Tok::Ident("x".into()).describe().contains('x'));
        assert!(Tok::KwFor.describe().contains("KwFor"));
    }
}
