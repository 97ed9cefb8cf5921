//! Figure 14: the same reaction-time analysis under burstier, lognormally
//! distributed VM arrivals.

fn main() {
    print!("{}", bench::Figure::Fig14.render());
}
