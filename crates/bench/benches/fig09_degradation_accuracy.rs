//! Figure 9: the analyzer's counter-based degradation estimate tracks the
//! client-reported degradation across interference intensities.

fn main() {
    print!("{}", bench::Figure::Fig9.render());
}
