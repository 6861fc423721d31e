//! Fixture: metric-name literals that violate the DESIGN.md §10 schema.

pub fn unknown_prefix() {
    cnnre_obs::counter("mystery.queries").inc();
}

pub fn single_segment() {
    cnnre_obs::series("candidates").push(1.0);
}

pub fn malformed_span_fragment() {
    let _s = cnnre_obs::span("Stage One");
}

pub fn valid_names_do_not_fire() {
    // Catalogue names and well-formed span fragments must pass.
    cnnre_obs::counter("oracle.queries").inc();
    cnnre_obs::series("solver.candidates_per_layer").push(3.0);
    cnnre_obs::counter("events.emitted").inc();
    cnnre_obs::gauge("events.clients").set(1.0);
    cnnre_obs::counter("viz.snapshots.written").inc();
    let _a = cnnre_obs::span("plan");
    let _b = cnnre_obs::span("trace.segment");
    let _c = cnnre_obs::span_labelled("stage", "conv1");
}

pub fn dynamic_names_are_unchecked(name: &str) {
    cnnre_obs::counter(name).inc();
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        cnnre_obs::counter("scratch").inc();
    }
}
