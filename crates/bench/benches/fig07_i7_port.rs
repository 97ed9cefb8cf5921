//! Figure 7: the Core i7 / NUMA port still separates interference from
//! normal behaviour (QPI / L3 / overall-CPI axes).

fn main() {
    print!("{}", bench::Figure::Fig7.render());
}
