//! Fixture: trips every workspace rule at least once. Deliberately has
//! no `#![forbid(unsafe_code)]` so `deny-unsafe` fires on line 1.

pub fn fallible(x: u32) -> Result<u32, ()> {
    Ok(x)
}

pub fn panics() -> u32 {
    let opt: Option<u32> = None;
    opt.unwrap()
}

pub fn discards() {
    fallible(3);
}

pub fn float_eq(x: f64) -> bool {
    x == 0.5
}

pub fn unitless() -> f64 {
    let carrier_freq = 2.0e6;
    carrier_freq
}

pub fn mixes(a_hz: f64, b_khz: f64) -> f64 {
    a_hz + b_khz
}
