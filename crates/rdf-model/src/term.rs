//! RDF terms: IRIs, literals, and blank nodes.
//!
//! Terms follow the W3C RDF 1.1 abstract syntax. We only support well-formed
//! triples (§2.1 of the paper): IRIs and blank nodes in subject position,
//! IRIs in property position, and any term in object position. That
//! positional discipline is enforced by the graph layer, not here.
//!
//! Two types describe one term. [`Term`] owns its strings and is what
//! callers build, keep and compare; [`TermRef`] is the same term as borrowed
//! `&str` fields and is what a [`crate::Dictionary`] is probed with and
//! hands back — its storage is one string arena, so there is no stored
//! `Term` to return a reference to. The view carries `Term`'s read-side
//! methods and `Display`, compares with `Term` in both directions, and
//! becomes an owned term with [`TermRef::to_term`].

use std::fmt;
use std::hash::{Hash, Hasher};

/// The kind of an RDF literal.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LiteralKind {
    /// A simple literal, e.g. `"G. Simenon"`. Per RDF 1.1 this is sugar for
    /// `xsd:string`, but we preserve the surface form for round-tripping.
    Simple,
    /// A language-tagged string, e.g. `"Le Port des Brumes"@fr`.
    Lang(String),
    /// A typed literal, e.g. `"1932"^^xsd:gYear`; the payload is the datatype
    /// IRI.
    Typed(String),
}

/// An RDF term.
///
/// Equality and hashing are structural, which is exactly the identity the
/// dictionary needs. Blank nodes compare by label; graph loaders are expected
/// to keep labels unique per input (the N-Triples parser does).
///
/// The [`Minted`](Term::Minted) variant is a *symbolic* IRI: a summary node
/// whose URI is derived from an interned property/class-set key and rendered
/// lazily (see [`crate::minted`]). It behaves as an IRI everywhere an IRI is
/// expected ([`Term::is_iri`], [`Term::as_iri`], `Display`, serialization),
/// but its equality/hash identity is the interned key, not the rendered
/// string.
///
/// `Hash` is "hash of the [`TermRef`] view" rather than derived, so an owned
/// term and a borrowed view of the same term hash alike by construction —
/// the property [`crate::Dictionary`]'s borrowed probe rests on.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Term {
    /// An IRI (we keep the common "URI" terminology of the paper in docs).
    Iri(String),
    /// A blank node with its label (without the `_:` prefix).
    Blank(String),
    /// A literal value.
    Literal {
        /// The lexical form, unescaped.
        lexical: String,
        /// Simple, language-tagged, or datatyped.
        kind: LiteralKind,
    },
    /// A symbolically minted summary node URI (lazy rendering).
    Minted(crate::minted::MintedTerm),
}

impl Term {
    /// Convenience constructor for an IRI term.
    pub fn iri(s: impl Into<String>) -> Self {
        Term::Iri(s.into())
    }

    /// Convenience constructor for a blank node term.
    pub fn blank(label: impl Into<String>) -> Self {
        Term::Blank(label.into())
    }

    /// Convenience constructor for a simple literal.
    pub fn literal(lexical: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            kind: LiteralKind::Simple,
        }
    }

    /// Convenience constructor for a language-tagged literal.
    pub fn lang_literal(lexical: impl Into<String>, lang: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            kind: LiteralKind::Lang(lang.into()),
        }
    }

    /// Convenience constructor for a datatyped literal.
    pub fn typed_literal(lexical: impl Into<String>, datatype: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            kind: LiteralKind::Typed(datatype.into()),
        }
    }

    /// Is this term an IRI? (Minted summary terms render as IRIs and
    /// count as such.)
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_) | Term::Minted(_))
    }

    /// Is this term a literal?
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// Is this term a blank node?
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// The IRI string, if this term is an IRI. For minted terms this
    /// renders (and caches) the URI — keep it off construction hot paths.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            Term::Minted(m) => Some(m.uri()),
            _ => None,
        }
    }

    /// May this term legally appear in subject position of a well-formed
    /// triple? (IRIs and blank nodes.)
    pub fn valid_subject(&self) -> bool {
        !self.is_literal()
    }

    /// May this term legally appear in property position? (IRIs only.)
    pub fn valid_property(&self) -> bool {
        self.is_iri()
    }

    /// A borrowed view of this term (no allocation, no rendering).
    pub fn as_term_ref(&self) -> TermRef<'_> {
        match self {
            Term::Iri(s) => TermRef::Iri(s),
            Term::Blank(l) => TermRef::Blank(l),
            Term::Literal { lexical, kind } => TermRef::Literal {
                lexical,
                kind: match kind {
                    LiteralKind::Simple => LiteralKindRef::Simple,
                    LiteralKind::Lang(tag) => LiteralKindRef::Lang(tag),
                    LiteralKind::Typed(dt) => LiteralKindRef::Typed(dt),
                },
            },
            Term::Minted(m) => TermRef::Minted(m),
        }
    }
}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_term_ref().hash(state);
    }
}

/// The borrowed counterpart of [`LiteralKind`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LiteralKindRef<'a> {
    /// A simple literal.
    Simple,
    /// A language-tagged string; the payload is the tag.
    Lang(&'a str),
    /// A typed literal; the payload is the datatype IRI.
    Typed(&'a str),
}

/// A borrowed view of a [`Term`]: the same variants over `&str` slices, with
/// the same structural identity — `a.as_term_ref() == b.as_term_ref()` iff `a == b`,
/// and a view hashes exactly like the term it views ([`Term`]'s `Hash` *is*
/// this type's). A parser can therefore describe a term as slices of its
/// input, ask a [`crate::Dictionary`] whether it is already interned, and
/// build the owned [`Term`] ([`TermRef::to_term`]) only when it is not.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TermRef<'a> {
    /// An IRI.
    Iri(&'a str),
    /// A blank node label (without the `_:` prefix).
    Blank(&'a str),
    /// A literal value.
    Literal {
        /// The lexical form, unescaped.
        lexical: &'a str,
        /// Simple, language-tagged, or datatyped.
        kind: LiteralKindRef<'a>,
    },
    /// A minted summary node; identity is the interned key (see
    /// [`crate::minted`]), never the rendered URI.
    Minted(&'a crate::minted::MintedTerm),
}

impl<'a> TermRef<'a> {
    /// Is the viewed term an IRI (minted terms included)?
    pub fn is_iri(&self) -> bool {
        matches!(self, TermRef::Iri(_) | TermRef::Minted(_))
    }

    /// Is the viewed term a literal?
    pub fn is_literal(&self) -> bool {
        matches!(self, TermRef::Literal { .. })
    }

    /// Is the viewed term a blank node?
    pub fn is_blank(&self) -> bool {
        matches!(self, TermRef::Blank(_))
    }

    /// The IRI string, if the viewed term is an IRI; it lives as long as
    /// the storage viewed, not just this view. For minted terms this
    /// renders (and caches) the URI — keep it off construction hot paths.
    pub fn as_iri(&self) -> Option<&'a str> {
        match *self {
            TermRef::Iri(s) => Some(s),
            TermRef::Minted(m) => Some(m.uri()),
            _ => None,
        }
    }

    /// May the viewed term appear in subject position? (IRIs and blank
    /// nodes.)
    pub fn valid_subject(&self) -> bool {
        !self.is_literal()
    }

    /// May the viewed term appear in property position? (IRIs only.)
    pub fn valid_property(&self) -> bool {
        self.is_iri()
    }

    /// Builds the owned term: one `String` per slice, the minted key's
    /// `Arc`s cloned.
    pub fn to_term(&self) -> Term {
        match *self {
            TermRef::Iri(s) => Term::Iri(s.to_owned()),
            TermRef::Blank(l) => Term::Blank(l.to_owned()),
            TermRef::Literal { lexical, kind } => Term::Literal {
                lexical: lexical.to_owned(),
                kind: match kind {
                    LiteralKindRef::Simple => LiteralKind::Simple,
                    LiteralKindRef::Lang(tag) => LiteralKind::Lang(tag.to_owned()),
                    LiteralKindRef::Typed(dt) => LiteralKind::Typed(dt.to_owned()),
                },
            },
            TermRef::Minted(m) => Term::Minted(m.clone()),
        }
    }
}

impl fmt::Display for Term {
    /// Formats the term in N-Triples surface syntax (without escaping; see
    /// `rdf-io` for the escaping serializer).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_term_ref().fmt(f)
    }
}

impl fmt::Display for TermRef<'_> {
    /// What [`Term`]'s `Display` writes for the viewed term.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TermRef::Iri(s) => write!(f, "<{s}>"),
            TermRef::Blank(l) => write!(f, "_:{l}"),
            TermRef::Literal { lexical, kind } => match kind {
                LiteralKindRef::Simple => write!(f, "\"{lexical}\""),
                LiteralKindRef::Lang(lang) => write!(f, "\"{lexical}\"@{lang}"),
                LiteralKindRef::Typed(dt) => write!(f, "\"{lexical}\"^^<{dt}>"),
            },
            TermRef::Minted(m) => write!(f, "<{}>", m.uri()),
        }
    }
}

impl PartialEq<Term> for TermRef<'_> {
    fn eq(&self, other: &Term) -> bool {
        *self == other.as_term_ref()
    }
}

impl PartialEq<TermRef<'_>> for Term {
    fn eq(&self, other: &TermRef<'_>) -> bool {
        self.as_term_ref() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
        assert_eq!(Term::blank("b1").to_string(), "_:b1");
        assert_eq!(Term::literal("hi").to_string(), "\"hi\"");
        assert_eq!(Term::lang_literal("hi", "en").to_string(), "\"hi\"@en");
        assert_eq!(
            Term::typed_literal("1", "http://www.w3.org/2001/XMLSchema#int").to_string(),
            "\"1\"^^<http://www.w3.org/2001/XMLSchema#int>"
        );
    }

    #[test]
    fn positional_validity() {
        assert!(Term::iri("http://x/a").valid_subject());
        assert!(Term::blank("b").valid_subject());
        assert!(!Term::literal("x").valid_subject());
        assert!(Term::iri("http://x/p").valid_property());
        assert!(!Term::blank("b").valid_property());
        assert!(!Term::literal("x").valid_property());
    }

    #[test]
    fn structural_equality() {
        assert_eq!(Term::iri("http://x/a"), Term::Iri("http://x/a".into()));
        assert_ne!(Term::literal("a"), Term::lang_literal("a", "en"));
        assert_ne!(
            Term::literal("a"),
            Term::typed_literal("a", "http://www.w3.org/2001/XMLSchema#string")
        );
        assert_ne!(Term::iri("a"), Term::blank("a"));
    }

    #[test]
    fn accessors() {
        let t = Term::iri("http://x/a");
        assert_eq!(t.as_iri(), Some("http://x/a"));
        assert!(t.is_iri() && !t.is_blank() && !t.is_literal());
        assert_eq!(Term::blank("b").as_iri(), None);
    }
}
