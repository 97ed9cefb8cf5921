//! Figure 12: DeepDive's accumulated profiling time stays low and flattens
//! after the first day, unlike baselines that re-profile on every
//! performance variation.

fn main() {
    print!("{}", bench::Figure::Fig12.render());
}
