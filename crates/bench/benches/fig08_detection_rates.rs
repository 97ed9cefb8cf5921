//! Figure 8: detection rate and false-positive rate while replaying the
//! HotMail traces with injected interference episodes, per day and workload.

fn main() {
    print!("{}", bench::Figure::Fig8.render());
}
