//! Figure 10: the synthetic benchmark clone suffers roughly the same
//! degradation as the real VM it mimics, across interference intensities.

fn main() {
    print!("{}", bench::Figure::Fig10.render());
}
