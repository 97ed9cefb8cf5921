//! Figure 6: breakdown of stalled cycles per instruction in production vs
//! isolation; the analyzer pinpoints the culprit resource in each scenario.

fn main() {
    print!("{}", bench::Figure::Fig6.render());
}
