//! Example with an unsuffixed physical quantity — the lint must see
//! workspace examples, not just `crates/*/src`.

fn main() {
    let carrier_freq = 2.0e6;
    println!("{carrier_freq:?}");
}
