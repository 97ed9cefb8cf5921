//! Figure 14: the same reaction-time analysis under burstier, lognormally
//! distributed VM arrivals.

use traces::ArrivalModel;

fn main() {
    bench::print_reaction_time_figure(14, "lognormal", ArrivalModel::Lognormal { sigma: 2.0 });
}
