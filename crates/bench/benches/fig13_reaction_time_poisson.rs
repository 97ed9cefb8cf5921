//! Figure 13: mean reaction time of the profiling farm under Poisson VM
//! arrivals — (a) local information only, (b) with global information,
//! (c) sweeping the Zipf popularity tail index.

fn main() {
    print!("{}", bench::Figure::Fig13.render());
}
