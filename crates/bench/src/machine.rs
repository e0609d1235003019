//! Paper-scale extrapolation of measured volumes. The α-β-γ machine the
//! performance figures price traffic with is [`xtrace::Machine`].

/// Scale a byte count from simulation scale to paper scale using the
/// validated volume model ratio — used when a figure needs paper-sized
/// matrices that cannot be run in-process. The scaling is
/// `measured · model(paper)/model(sim)`, documented per experiment.
pub fn extrapolate(measured: f64, model_at_sim: f64, model_at_paper: f64) -> f64 {
    if model_at_sim <= 0.0 {
        return 0.0;
    }
    measured * model_at_paper / model_at_sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extrapolation_is_proportional() {
        assert_eq!(extrapolate(100.0, 10.0, 40.0), 400.0);
        assert_eq!(extrapolate(100.0, 0.0, 40.0), 0.0);
    }
}
