//! The page model E9 sizes both sides' records in: 8 KiB slotted-page
//! frames, filled first-fit.

/// A page frame of the model [`page_bytes`] packs records into.
pub const PAGE_SIZE: usize = 8192;
/// Each frame's header.
const PAGE_HEADER: usize = 20;
/// The slot each record takes in its frame's directory.
const SLOT_SIZE: usize = 4;

/// Bytes a slotted-page heap occupies holding records of the given
/// encoded lengths: 8 KiB frames, each a 20-byte header plus a record
/// and a 4-byte slot per record, filled first-fit in the order given.
///
/// # Panics
///
/// If a record does not fit an empty frame.
pub fn page_bytes(records: impl IntoIterator<Item = usize>) -> usize {
    // Bytes in use in each frame opened so far.
    let mut frames: Vec<usize> = Vec::new();
    for len in records {
        let need = len + SLOT_SIZE;
        assert!(
            PAGE_HEADER + need <= PAGE_SIZE,
            "a record of {len} bytes does not fit a page frame"
        );
        match frames.iter_mut().find(|used| **used + need <= PAGE_SIZE) {
            Some(used) => *used += need,
            None => frames.push(PAGE_HEADER + need),
        }
    }
    frames.len() * PAGE_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The largest record an empty frame holds.
    const MAX_RECORD: usize = PAGE_SIZE - PAGE_HEADER - SLOT_SIZE;

    #[test]
    fn fills_up_and_reports_space() {
        assert_eq!(page_bytes([]), 0);
        // Eight 1 000-byte records and their slots fill one frame
        // (20 + 8 × 1 004 = 8 052 bytes).
        assert_eq!(page_bytes([1000; 8]), PAGE_SIZE);
        assert_eq!(page_bytes([MAX_RECORD]), PAGE_SIZE);
        assert_eq!(page_bytes([MAX_RECORD - 1004, 1000]), PAGE_SIZE);
    }

    #[test]
    fn insert_spills_to_new_pages() {
        // A ninth 1 000-byte record no longer fits the first frame.
        assert_eq!(page_bytes([1000; 9]), 2 * PAGE_SIZE);
        // Two 3 000-byte records per frame: ten take five frames.
        assert_eq!(page_bytes([3000; 10]), 5 * PAGE_SIZE);
        // First fit: a small record goes back to the first frame with
        // room, not to the last one opened.
        assert_eq!(page_bytes([5000, 5000, 100]), 2 * PAGE_SIZE);
        assert_eq!(page_bytes([MAX_RECORD, 1]), 2 * PAGE_SIZE);
    }

    #[test]
    fn rejects_oversized_records() {
        for len in [MAX_RECORD + 1, PAGE_SIZE] {
            let oversized = std::panic::catch_unwind(|| page_bytes([len]));
            assert!(oversized.is_err(), "a {len}-byte record fits no frame");
        }
        // A record past a frame is refused wherever it comes in the order.
        let late = std::panic::catch_unwind(|| page_bytes([10, MAX_RECORD + 1]));
        assert!(late.is_err());
    }
}
