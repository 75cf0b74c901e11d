//! Typed column images: what a scan reads instead of a row.
//!
//! Beside its rows, a [`crate::Table`] keeps for every `REAL` column a
//! dense *image* — one `f64` slot per row plus one **native** bit, set iff
//! the stored [`Value`] is a `Real`. `NULL`, and an `Int` widened into the
//! column, are not native: their slots hold no value, and whoever reads
//! the image must go back to the row for them. A native slot holds the
//! very bits the row holds. (`INT` columns are not imaged: no measured
//! workload scans an integer range, and an image is paid for on every
//! insert.)
//!
//! Images are appended by [`crate::Table`]'s `push_row`, the one funnel
//! of every insert path, and stored values never change after insert, so
//! an image has exactly one slot per row and there is no update or
//! invalidation path. They grow by whole fixed-size chunks — no doubling
//! slack — so a column costs 8.125 bytes per row (and one partly filled
//! chunk).
//!
//! Nothing here compares two floats: [`Image::failing`] applies the test
//! it is handed, and the scan hands it [`crate::value::real_cmp`], the
//! order [`Value::sql_cmp`] itself uses.

use crate::value::Value;
use std::hint::select_unpredictable;

/// Slots per chunk.
const CHUNK_ROWS: usize = 1024;
/// 64-slot words per chunk.
const WORDS: usize = CHUNK_ROWS / 64;

#[derive(Debug, Clone)]
struct Chunk {
    /// Slot `i` is `values[i / 64][i % 64]`.
    values: [[f64; 64]; WORDS],
    /// Bit `i % 64` of word `i / 64` is slot `i`'s native bit.
    native: [u64; WORDS],
}

/// The image of one `REAL` column.
#[derive(Debug, Clone, Default)]
pub struct Image {
    chunks: Vec<Box<Chunk>>,
    len: usize,
}

impl Image {
    /// Append the slot of a row holding `value` in this column.
    pub(crate) fn push(&mut self, value: &Value) {
        let at = self.len % CHUNK_ROWS;
        if at == 0 {
            self.chunks.push(Box::new(Chunk {
                values: [[0.0; 64]; WORDS],
                native: [0; WORDS],
            }));
        }
        self.len += 1;
        // Not `as_f64`: that widens an `Int`, which is not native here.
        let (Value::Real(r), Some(chunk)) = (value, self.chunks.last_mut()) else {
            return;
        };
        let (word, bit) = (at / 64, at % 64);
        let slot = chunk.values.get_mut(word).and_then(|w| w.get_mut(bit));
        if let (Some(slot), Some(native)) = (slot, chunk.native.get_mut(word)) {
            *slot = *r;
            *native |= 1 << bit;
        }
    }

    /// Every slot in row order, one per row: the value of a native slot,
    /// `None` for one that is not.
    pub fn slots(&self) -> impl Iterator<Item = Option<f64>> + '_ {
        let words = self.chunks.iter().flat_map(|chunk| {
            let words = chunk.values.iter().zip(chunk.native);
            words.flat_map(|(slots, native)| {
                let slots = slots.iter().enumerate();
                slots.map(move |(bit, v)| (native >> bit & 1 == 1).then_some(*v))
            })
        });
        words.take(self.len)
    }

    /// Of the 64 slots `64 * word ..`, the native ones that fail `keep`,
    /// as a bitmask (bit `i` is slot `64 * word + i`). A slot that is not
    /// native, or past the end, never fails.
    pub fn failing(&self, word: usize, keep: impl Fn(f64) -> bool) -> u64 {
        let Some(chunk) = self.chunks.get(word / WORDS) else {
            return 0;
        };
        let at = word % WORDS;
        let (Some(slots), Some(native)) = (chunk.values.get(at), chunk.native.get(at)) else {
            return 0;
        };
        // Every slot is tested, native or not, and a range test fails about
        // as often as not: no branch on the data. Slot `i`'s bit enters at
        // the top and is shifted down `63 - i` times.
        let failed = slots.iter().fold(0, |failed, &v| {
            failed >> 1 | select_unpredictable(keep(v), 0, 1 << 63)
        });
        failed & native
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_hold_native_values_and_nothing_else() {
        let mut image = Image::default();
        let stored = [
            Value::Real(-0.0),
            Value::Null,
            Value::Int(3), // widened into the REAL column: not native
            Value::Real(f64::NAN),
        ];
        for v in &stored {
            image.push(v);
        }
        let bits: Vec<Option<u64>> = image.slots().map(|s| s.map(f64::to_bits)).collect();
        let expected = [
            Some((-0.0f64).to_bits()),
            None,
            None,
            Some(f64::NAN.to_bits()),
        ];
        assert_eq!(bits, expected);
    }

    #[test]
    fn images_grow_a_chunk_at_a_time_and_only_native_slots_fail() {
        let mut image = Image::default();
        let n = 2 * CHUNK_ROWS + 7;
        for i in 0..n {
            // Every fifth slot is not native.
            image.push(&if i % 5 == 0 {
                Value::Null
            } else {
                Value::Real(i as f64)
            });
        }
        assert_eq!(image.chunks.len(), 3);
        let slots: Vec<Option<f64>> = image.slots().collect();
        assert_eq!(slots.len(), n);
        assert_eq!(slots[CHUNK_ROWS + 2], Some(CHUNK_ROWS as f64 + 2.0));
        assert_eq!(slots[CHUNK_ROWS * 2 + 2], None, "not native");
        // Native odd values fail; non-native slots, slots past the end and
        // words past the last chunk do not.
        for word in 0..3 * WORDS + 1 {
            let failing = image.failing(word, |v| (v as u64).is_multiple_of(2));
            for i in 0..64 {
                let pos = 64 * word + i;
                let expected = pos < n && pos % 5 != 0 && pos % 2 == 1;
                assert_eq!(failing >> i & 1 == 1, expected, "slot {pos}");
            }
        }
    }
}
