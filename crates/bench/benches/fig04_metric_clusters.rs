//! Figure 4: normalized metric values cluster separately with and without
//! interference for Data Serving, Web Search and Data Analytics.

fn main() {
    print!("{}", bench::Figure::Fig4.render());
}
