//! Acoustic models: how faithfully the recognizer hears the phones.
//!
//! The paper tried two models: one trained on clean speech and one aimed
//! at word recognition in TV news; the latter won because it copes with
//! broadcast noise. The simulation captures exactly that trade-off: each
//! model has a base phone-error rate plus a sensitivity to the slot's
//! noise level.

use crate::phoneme::PhonemeStream;

/// An acoustic model with its error characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcousticModel {
    /// Trained on clean read speech: excellent in quiet, brittle in noise.
    CleanSpeech,
    /// Trained for TV news: slightly worse in quiet, robust in noise.
    TvNews,
}

impl AcousticModel {
    /// Phone-error probability at a given noise level.
    pub fn error_rate(self, noise: f64) -> f64 {
        let (base, sensitivity) = match self {
            AcousticModel::CleanSpeech => (0.03, 0.55),
            AcousticModel::TvNews => (0.06, 0.10),
        };
        (base + sensitivity * noise.clamp(0.0, 1.0)).min(0.95)
    }

    /// Decodes a stream into observed phones: every true phone survives
    /// with probability `1 − error_rate(noise)`, otherwise it is replaced
    /// by a confusion (deterministic per slot, so decoding is repeatable).
    pub fn decode(self, stream: &PhonemeStream) -> Vec<Option<char>> {
        stream
            .slots
            .iter()
            .enumerate()
            .map(|(i, &slot)| {
                let phone = slot?;
                let err = self.error_rate(stream.noise[i]);
                let h = hash64(i as u64 ^ ((self as u64) << 32).wrapping_add(0x5EED));
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                if u < err {
                    // Confusion: a deterministic other letter.
                    let sub = (b'A' + ((h >> 40) % 26) as u8) as char;
                    Some(if sub == phone {
                        // Ensure the substitution actually differs.
                        if sub == 'Z' {
                            'A'
                        } else {
                            (sub as u8 + 1) as char
                        }
                    } else {
                        sub
                    })
                } else {
                    Some(phone)
                }
            })
            .collect()
    }
}

fn hash64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_rates_order_as_the_paper_reports() {
        // In quiet, clean-speech is the better model…
        assert!(AcousticModel::CleanSpeech.error_rate(0.0) < AcousticModel::TvNews.error_rate(0.0));
        // …in broadcast noise the TV-news model wins decisively.
        assert!(
            AcousticModel::TvNews.error_rate(0.7)
                < AcousticModel::CleanSpeech.error_rate(0.7) / 2.0
        );
        assert!(AcousticModel::CleanSpeech.error_rate(5.0) <= 0.95);
    }

    #[test]
    fn decode_preserves_silence_and_length() {
        let stream = PhonemeStream {
            slots: vec![None, Some('A'), Some('B'), None],
            noise: vec![0.0; 4],
        };
        let out = AcousticModel::TvNews.decode(&stream);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], None);
        assert_eq!(out[3], None);
        assert!(out[1].is_some() && out[2].is_some());
    }

    #[test]
    fn substitutions_always_differ_from_the_truth() {
        // At maximum noise the clean model substitutes often; whatever it
        // outputs for a true phone must be a letter (and the stream is
        // decoded deterministically).
        let stream = PhonemeStream {
            slots: vec![Some('Q'); 500],
            noise: vec![1.0; 500],
        };
        let a = AcousticModel::CleanSpeech.decode(&stream);
        let b = AcousticModel::CleanSpeech.decode(&stream);
        assert_eq!(a, b);
        let errors = a.iter().filter(|&&c| c != Some('Q')).count();
        assert!(errors > 150, "expected many substitutions, got {errors}");
        assert!(a
            .iter()
            .all(|c| c.is_some_and(|ch| ch.is_ascii_uppercase())));
    }

    #[test]
    fn clean_model_is_near_perfect_in_quiet() {
        let stream = PhonemeStream {
            slots: vec![Some('K'); 500],
            noise: vec![0.0; 500],
        };
        let out = AcousticModel::CleanSpeech.decode(&stream);
        let errors = out.iter().filter(|&&c| c != Some('K')).count();
        assert!(errors < 40, "{errors} errors in quiet");
    }
}
