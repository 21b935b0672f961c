//! L018 fixture: a per-request block list collected inside a replay loop,
//! with a clean sibling that walks the same block range in place.

pub fn replay(reqs: &[(u64, u64)], hits: &mut u64) {
    for &(first, last) in reqs {
        let blocks: Vec<u64> = (first..=last).collect();
        for block in blocks {
            *hits += block & 1;
        }
    }
}

pub fn replay_in_place(reqs: &[(u64, u64)], hits: &mut u64) {
    for &(first, last) in reqs {
        for block in first..=last {
            *hits += block & 1;
        }
    }
}
