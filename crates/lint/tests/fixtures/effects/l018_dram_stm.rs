//! L018 fixture: a per-stride history key copied inside a table-fitting
//! loop, with a clean sibling that walks the same history in place.

pub fn fit(strides: &[i64], keys: &mut Vec<Vec<i64>>) {
    for i in 1..strides.len() {
        let key = strides[i - 1..i].to_vec();
        keys.push(key);
    }
}

pub fn fit_in_place(strides: &[i64], sum: &mut i64) {
    for i in 1..strides.len() {
        for &s in strides[i - 1..i].iter().rev() {
            *sum += s;
        }
    }
}
