//! Figure 11: the placement manager predicts interference on candidate
//! destination machines with the synthetic benchmark and picks the best one
//! without performing any real migration.

fn main() {
    print!("{}", bench::Figure::Fig11.render());
}
