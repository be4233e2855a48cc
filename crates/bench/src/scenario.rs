//! Scenario operands of the `figures scenario` subcommand: bundled
//! names and `.scn` files. The line-up that runs them lives in
//! [`rac::lineup`].

use std::path::Path;

use scenario::Scenario;

pub use rac::lineup::{run_tuners, scenario_table};

/// Names of the bundled scenarios, in bundle order.
pub fn bundled_names() -> Vec<&'static str> {
    scenario::bundled::all()
        .into_iter()
        .map(|(n, _)| n)
        .collect()
}

/// Why a scenario operand could not be turned into a [`Scenario`].
#[derive(Debug)]
pub enum ResolveError {
    /// The operand named neither a bundled scenario nor a readable file.
    NotFound {
        /// The operand as given.
        arg: String,
        /// The bundled names that *would* have resolved.
        bundled: Vec<&'static str>,
        /// The error from trying it as a path.
        source: std::io::Error,
    },
    /// The operand was readable but is not a valid scenario.
    Parse {
        /// Where the text came from (operand or `bundled scenario X`).
        origin: String,
        /// The scenario-language error, with line number.
        source: scenario::ParseError,
    },
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::NotFound {
                arg,
                bundled,
                source,
            } => write!(
                f,
                "{arg}: not a bundled scenario ({}) and not a readable file: {source}",
                bundled.join(", ")
            ),
            ResolveError::Parse { origin, source } => write!(f, "{origin}: {source}"),
        }
    }
}

impl std::error::Error for ResolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResolveError::NotFound { source, .. } => Some(source),
            ResolveError::Parse { source, .. } => Some(source),
        }
    }
}

/// Resolves a scenario operand: a bundled name first, then a path to a
/// `.scn` file on disk. Parser warnings (directives in the dead zone at
/// or past `duration`) go to stderr — the scenario still runs, but
/// silently inert directives deserve a note.
///
/// # Errors
///
/// Returns [`ResolveError`] when the operand is neither.
pub fn resolve(arg: &str) -> Result<Scenario, ResolveError> {
    let (origin, src) = match scenario::bundled::by_name(arg) {
        Some(src) => (format!("bundled scenario {arg}"), src.to_string()),
        None => {
            let src = std::fs::read_to_string(Path::new(arg)).map_err(|source| {
                ResolveError::NotFound {
                    arg: arg.to_string(),
                    bundled: bundled_names(),
                    source,
                }
            })?;
            (arg.to_string(), src)
        }
    };
    let (scn, warnings) =
        Scenario::parse_with_warnings(&src).map_err(|source| ResolveError::Parse {
            origin: origin.clone(),
            source,
        })?;
    for w in &warnings {
        eprintln!("warning: {origin}: {w}");
    }
    Ok(scn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rac::IterationRecord;

    #[test]
    fn resolve_finds_bundled_and_rejects_garbage() {
        for name in bundled_names() {
            let scn = resolve(name).expect("bundled scenario resolves");
            assert_eq!(scn.name, name);
        }
        let err = resolve("no-such-scenario").unwrap_err();
        assert!(matches!(err, ResolveError::NotFound { .. }));
        let msg = err.to_string();
        assert!(
            msg.contains("diurnal"),
            "error must list bundled names: {msg}"
        );
    }

    #[test]
    fn table_has_time_and_client_columns() {
        let scn = resolve("flash-crowd").unwrap();
        let series: Vec<(&str, Vec<IterationRecord>)> = vec![("RAC", Vec::new())];
        let t = scenario_table(&scn, &series);
        assert_eq!(t.len(), scn.iterations());
        let csv = t.render_csv();
        assert!(csv.starts_with("iteration,t_s,clients,RAC\n"));
        // The spike at 2400s must show in the offered-client column.
        let peak = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(2).unwrap().parse::<usize>().unwrap())
            .max()
            .unwrap();
        assert!(peak > 400, "spike must lift clients above base: {peak}");
    }
}
