//! Tokenization substrate for the WYM entity-matching system.
//!
//! WYM concatenates the attribute values of a record and applies "word-piece
//! tokenization with stop word removal" (paper §4.1.1). Decision units live at
//! the level of *words*, so the public tokenizer produces word tokens:
//! lower-cased alphanumeric runs with decimal numbers kept intact and English
//! stop words removed. A word-piece-style greedy subword splitter is provided
//! separately ([`wordpiece`]) and is used by the embedding substrate to build
//! sub-token character features, mirroring how BERT's subword vocabulary sits
//! *below* the word level.

pub mod stopwords;
pub mod wordpiece;

use serde::{Deserialize, Serialize};

/// Configurable word tokenizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tokenizer {
    /// Lower-case the input before splitting (default true).
    pub lowercase: bool,
    /// Drop English stop words (default true, per the paper).
    pub remove_stopwords: bool,
    /// Drop tokens shorter than this many characters (default 1 = keep all).
    pub min_len: usize,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Self { lowercase: true, remove_stopwords: true, min_len: 1 }
    }
}

impl Tokenizer {
    /// A tokenizer that keeps everything (no stop word removal).
    pub fn keep_all() -> Self {
        Self { lowercase: true, remove_stopwords: false, min_len: 1 }
    }

    /// Splits `text` into word tokens.
    ///
    /// Tokens are maximal runs of alphanumeric characters; a single `.` or
    /// `,` flanked by digits stays inside the token so prices like `37.63`
    /// survive as one token (matching the paper's running example).
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        self.for_each_token(text, &mut String::new(), |t| tokens.push(t.to_owned()));
        tokens
    }

    /// Calls `f` on each token of `text`, in order — the one tokenizing
    /// loop behind [`Tokenizer::tokenize`], for callers that copy tokens
    /// somewhere cheaper than one `String` each.
    ///
    /// With `lowercase` on, `text` is lower-cased into `buf` (reused across
    /// calls) and each token is a slice of `buf`; otherwise a slice of
    /// `text`. The characters are walked once: a `.` or `,` joins the
    /// current token when the token's last character and the next
    /// character are ASCII digits. `min_len` counts characters.
    pub fn for_each_token(&self, text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
        let source: &str = if !self.lowercase {
            text
        } else if text.is_ascii() {
            buf.clear();
            buf.push_str(text);
            buf.make_ascii_lowercase();
            buf
        } else {
            // `str::to_lowercase` knows the context rules (a word-final
            // `Σ` becomes `ς`) that per-character lowering does not.
            *buf = text.to_lowercase();
            buf
        };
        let mut emit = |token: &str, n_chars: usize| {
            if n_chars >= self.min_len && !(self.remove_stopwords && stopwords::is_stopword(token))
            {
                f(token);
            }
        };
        // The current token: its byte start, character count, last char.
        let mut start = None;
        let (mut n_chars, mut last) = (0usize, '\0');
        let mut chars = source.char_indices().peekable();
        while let Some((i, c)) = chars.next() {
            let digit_separator = (c == '.' || c == ',')
                && start.is_some()
                && last.is_ascii_digit()
                && chars.peek().is_some_and(|&(_, next)| next.is_ascii_digit());
            if c.is_alphanumeric() || digit_separator {
                if start.is_none() {
                    start = Some(i);
                    n_chars = 0;
                }
                n_chars += 1;
                last = c;
            } else if let Some(s) = start.take() {
                emit(&source[s..i], n_chars);
            }
        }
        if let Some(s) = start {
            emit(&source[s..], n_chars);
        }
    }

    /// Tokenizes each attribute value separately, returning one token list
    /// per attribute. This is the entry point used by the decision unit
    /// generator, which needs to know the attribute each token came from.
    pub fn tokenize_attributes(&self, values: &[String]) -> Vec<Vec<String>> {
        let _span = wym_obs::span("tokenize");
        let out: Vec<Vec<String>> = values.iter().map(|v| self.tokenize(v)).collect();
        if wym_obs::enabled() {
            let n_tokens: usize = out.iter().map(|a| a.len()).sum();
            wym_obs::counter_add("tokenize.records", 1);
            wym_obs::counter_add("tokenize.tokens", n_tokens as u64);
            wym_obs::hist_observe("tokenize.tokens_per_record", n_tokens as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The char-vector tokenizer that [`Tokenizer::for_each_token`]
    /// replaced, kept as the reference it must reproduce.
    fn tokenize_reference(t: &Tokenizer, text: &str) -> Vec<String> {
        let source: String = if t.lowercase {
            text.to_lowercase()
        } else {
            text.to_string()
        };
        let chars: Vec<char> = source.chars().collect();
        let mut tokens = Vec::new();
        let mut cur = String::new();
        for (i, &c) in chars.iter().enumerate() {
            let digit_separator = (c == '.' || c == ',')
                && !cur.is_empty()
                && cur.chars().last().is_some_and(|p| p.is_ascii_digit())
                && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit());
            if c.is_alphanumeric() || digit_separator {
                cur.push(c);
            } else if !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            tokens.push(cur);
        }
        tokens.retain(|tok| {
            tok.chars().count() >= t.min_len && !(t.remove_stopwords && stopwords::is_stopword(tok))
        });
        tokens
    }

    /// Text fragments glued together without separators, so digits meet
    /// `.` and `,` on either side and words meet punctuation and
    /// non-ASCII letters: a word-final `Σ`, `İ` (which lower-cases to two
    /// chars), `ß`, a ligature, combining marks and non-Latin digits.
    fn text() -> impl Strategy<Value = String> {
        let fragments: Vec<&str> = "Sony|camera|THE|a|with|Of|x|dslra200w|37|4|1|000|.|,|.5|1,000|\
            42.| |  |-|/|(|)|!|\t|ΣΟΦΙΑΣ|Σ|σ|ΌΣΟΣ|İstanbul|İ|straße|ß|ﬁne|e\u{301}|\u{301}|Café|\
            Zürich|٣|日本|ǅ"
            .split('|')
            .collect();
        prop::collection::vec(prop::sample::select(fragments), 0..24).prop_map(|f| f.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn one_loop_matches_the_char_vector_tokenizer(s in text()) {
            let mut buf = String::from("stale contents");
            for lowercase in [true, false] {
                for remove_stopwords in [true, false] {
                    for min_len in 1..=3 {
                        let t = Tokenizer { lowercase, remove_stopwords, min_len };
                        let want = tokenize_reference(&t, &s);
                        prop_assert_eq!(&t.tokenize(&s), &want, "{:?}", t);
                        let mut got = Vec::new();
                        t.for_each_token(&s, &mut buf, |tok| got.push(tok.to_string()));
                        prop_assert_eq!(&got, &want, "{:?}", t);
                    }
                }
            }
        }
    }

    #[test]
    fn splits_on_punctuation_and_lowercases() {
        let t = Tokenizer::default();
        assert_eq!(t.tokenize("Exch Srvr, External/SA!"), vec!["exch", "srvr", "external", "sa"]);
    }

    #[test]
    fn keeps_decimal_numbers_whole() {
        let t = Tokenizer::default();
        assert_eq!(t.tokenize("price: 37.63 usd"), vec!["price", "37.63", "usd"]);
        assert_eq!(t.tokenize("1,000 units"), vec!["1,000", "units"]);
    }

    #[test]
    fn trailing_dot_is_not_glued() {
        let t = Tokenizer::default();
        assert_eq!(t.tokenize("price 42."), vec!["price", "42"]);
    }

    #[test]
    fn removes_stopwords_by_default() {
        let t = Tokenizer::default();
        assert_eq!(t.tokenize("the camera with a lens"), vec!["camera", "lens"]);
    }

    #[test]
    fn keep_all_retains_stopwords() {
        let t = Tokenizer::keep_all();
        assert_eq!(t.tokenize("the camera"), vec!["the", "camera"]);
    }

    #[test]
    fn alphanumeric_codes_survive() {
        let t = Tokenizer::default();
        assert_eq!(t.tokenize("dslra200w (5811)"), vec!["dslra200w", "5811"]);
    }

    #[test]
    fn empty_and_whitespace_inputs() {
        let t = Tokenizer::default();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("  \t\n ").is_empty());
        assert!(t.tokenize("?!...").is_empty());
    }

    #[test]
    fn min_len_filters_short_tokens() {
        let t = Tokenizer { min_len: 2, ..Tokenizer::default() };
        assert_eq!(t.tokenize("a 4 tv xx"), vec!["tv", "xx"]);
    }

    #[test]
    fn tokenize_attributes_keeps_attribute_boundaries() {
        let t = Tokenizer::default();
        let out = t.tokenize_attributes(&["sony camera".into(), "37.63".into()]);
        assert_eq!(out, vec![vec!["sony".to_string(), "camera".into()], vec!["37.63".into()]]);
    }

    #[test]
    fn unicode_words() {
        let t = Tokenizer::default();
        assert_eq!(t.tokenize("Café Zürich"), vec!["café", "zürich"]);
    }
}
