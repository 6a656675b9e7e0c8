//! The finite state grammar of the spotter.
//!
//! Each keyword compiles to a left-to-right finite-state acceptor over
//! phones; the grammar is their union plus a filler loop (implicitly, any
//! unaligned slot). This is the classical keyword-spotting FSG topology
//! the paper's tool ([20]) uses.

use crate::{KeywordError, Result};

/// A keyword's acceptor: the phone chain of the word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordFsa {
    /// The keyword (uppercase).
    pub word: String,
    /// The phone chain (one state per phone).
    pub phones: Vec<char>,
}

/// The spotting grammar: a union of word acceptors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grammar {
    words: Vec<WordFsa>,
}

impl Grammar {
    /// Compiles keywords into acceptors. Words must spell with A–Z.
    pub fn new(keywords: &[&str]) -> Result<Self> {
        if keywords.is_empty() {
            return Err(KeywordError::EmptyGrammar);
        }
        let mut words = Vec::with_capacity(keywords.len());
        for &w in keywords {
            let up = w.to_uppercase();
            if up.is_empty() || !up.chars().all(|c| c.is_ascii_uppercase()) {
                return Err(KeywordError::BadWord(w.to_string()));
            }
            words.push(WordFsa {
                phones: up.chars().collect(),
                word: up,
            });
        }
        Ok(Grammar { words })
    }

    /// The "couple of tens of words that can be usually heard when the
    /// commentator is excited" (§5.2) — the scenario's keyword list.
    pub fn formula1() -> Self {
        Grammar::new(&[
            "INCREDIBLE",
            "OVERTAKE",
            "CRASH",
            "GRAVEL",
            "LEADER",
            "PITSTOP",
            "FASTEST",
            "ATTACK",
        ])
        .expect("builtin keywords spell")
    }

    /// The word acceptors.
    pub fn words(&self) -> &[WordFsa] {
        &self.words
    }

    /// Number of keywords.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the grammar is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_keywords_to_phone_chains() {
        let g = Grammar::new(&["crash", "LEADER"]).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.words()[0].word, "CRASH");
        assert_eq!(g.words()[0].phones, vec!['C', 'R', 'A', 'S', 'H']);
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(Grammar::new(&[]), Err(KeywordError::EmptyGrammar));
        assert!(matches!(
            Grammar::new(&["PIT STOP"]),
            Err(KeywordError::BadWord(_))
        ));
        assert!(matches!(Grammar::new(&[""]), Err(KeywordError::BadWord(_))));
    }

    #[test]
    fn builtin_grammar_matches_the_scenario_vocabulary() {
        let g = Grammar::formula1();
        assert!(!g.is_empty());
        // Every scenario keyword is spellable by the grammar's alphabet.
        for w in g.words() {
            assert!(w.phones.iter().all(|c| c.is_ascii_uppercase()));
        }
    }
}
