//! The paper's example applications as complete, parseable scripts.
//!
//! The paper's listings (§5) omit several task class declarations and have
//! one inconsistency (the `Dispatch` task class is declared with input
//! `order of class Order` but its instance binds `inputobject stockInfo`);
//! these scripts complete and reconcile them. Each constant is used by the
//! examples, the integration tests and the per-figure benchmarks.
//!
//! [`chain`] and [`fan`] generate the two scalable benchmark shapes as
//! text.

use std::fmt::Write as _;

/// A minimal two-task pipeline used by the quickstart example.
pub const QUICKSTART: &str = r#"
class Message;

taskclass Produce {
    inputs { input main { seed of class Message } };
    outputs { outcome produced { message of class Message } }
}

taskclass Consume {
    inputs { input main { message of class Message } };
    outputs { outcome consumed { result of class Message }; outcome rejected { } }
}

taskclass Pipeline {
    inputs { input main { seed of class Message } };
    outputs { outcome done { result of class Message }; outcome failed { } }
}

compoundtask pipeline of taskclass Pipeline {
    task produce of taskclass Produce {
        implementation { "code" is "refProduce" };
        inputs {
            input main {
                inputobject seed from { seed of task pipeline if input main }
            }
        }
    };
    task consume of taskclass Consume {
        implementation { "code" is "refConsume" };
        inputs {
            input main {
                inputobject message from { message of task produce if output produced }
            }
        }
    };
    outputs {
        outcome done {
            outputobject result from { result of task consume if output consumed }
        };
        outcome failed {
            notification from { task consume if output rejected }
        }
    }
}
"#;

/// Fig. 1's four-task diamond: t1 → {t2, t3} → t4, with a notification
/// dependency t1→t2 (dotted in the paper) and dataflow elsewhere.
pub const FIG1_DIAMOND: &str = r#"
class Data;

taskclass Source {
    inputs { input main { seed of class Data } };
    outputs { outcome done { out of class Data } }
}

taskclass Stage {
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data } }
}

taskclass NotifiedStage {
    inputs { input main { } };
    outputs { outcome done { out of class Data } }
}

taskclass Join {
    inputs { input main { left of class Data; right of class Data } };
    outputs { outcome done { out of class Data } }
}

taskclass Diamond {
    inputs { input main { seed of class Data } };
    outputs { outcome done { out of class Data } }
}

compoundtask diamond of taskclass Diamond {
    task t1 of taskclass Source {
        implementation { "code" is "refT1" };
        inputs {
            input main { inputobject seed from { seed of task diamond if input main } }
        }
    };
    task t2 of taskclass NotifiedStage {
        implementation { "code" is "refT2" };
        inputs {
            input main {
                notification from { task t1 if output done }
            }
        }
    };
    task t3 of taskclass Stage {
        implementation { "code" is "refT3" };
        inputs {
            input main { inputobject in from { out of task t1 if output done } }
        }
    };
    task t4 of taskclass Join {
        implementation { "code" is "refT4" };
        inputs {
            input main {
                inputobject left from { out of task t2 if output done };
                inputobject right from { out of task t3 if output done }
            }
        }
    };
    outputs {
        outcome done { outputobject out from { out of task t4 if output done } }
    }
}
"#;

/// §5.1 / Fig. 6: the network-management service impact application.
pub const SERVICE_IMPACT: &str = r#"
class AlarmsSource;
class FaultReport;
class ServiceImpactReports;
class ResolutionReport;

taskclass ServiceImpactApplication {
    inputs {
        input main { alarmsSource of class AlarmsSource }
    };
    outputs {
        outcome resolved { resolutionReport of class ResolutionReport };
        outcome notResolved { };
        outcome serviceImpactApplicationFailure { }
    }
}

taskclass AlarmCorrelator {
    inputs { input main { alarmSource of class AlarmsSource } };
    outputs {
        outcome foundFault { faultReport of class FaultReport };
        outcome alarmCorrelatorFailure { }
    }
}

taskclass ServiceImpactAnalysis {
    inputs { input main { faultReport of class FaultReport } };
    outputs {
        outcome foundImpacts { serviceImpactReports of class ServiceImpactReports };
        outcome serviceImpactAnalysisFailure { }
    }
}

taskclass ServiceImpactResolution {
    inputs { input main { serviceImpactReports of class ServiceImpactReports } };
    outputs {
        outcome foundResolution { resolutionReport of class ResolutionReport };
        outcome foundNoResolution { };
        outcome serviceImpactResolutionFailure { }
    }
}

compoundtask serviceImpactApplication of taskclass ServiceImpactApplication {
    task alarmCorrelator of taskclass AlarmCorrelator {
        implementation { "code" is "refAlarmCorrelator" };
        inputs {
            input main {
                inputobject alarmSource from {
                    alarmsSource of task serviceImpactApplication if input main
                }
            }
        }
    };
    task serviceImpactAnalysis of taskclass ServiceImpactAnalysis {
        implementation { "code" is "refServiceImpactAnalysis" };
        inputs {
            input main {
                inputobject faultReport from {
                    faultReport of task alarmCorrelator if output foundFault
                }
            }
        }
    };
    task serviceImpactResolution of taskclass ServiceImpactResolution {
        implementation { "code" is "refServiceImpactResolution" };
        inputs {
            input main {
                inputobject serviceImpactReports from {
                    serviceImpactReports of task serviceImpactAnalysis
                }
            }
        }
    };
    outputs {
        outcome resolved {
            outputobject resolutionReport from {
                resolutionReport of task serviceImpactResolution if output foundResolution
            }
        };
        outcome notResolved {
            notification from {
                task serviceImpactResolution if output foundNoResolution
            }
        };
        outcome serviceImpactApplicationFailure {
            notification from {
                task alarmCorrelator if output alarmCorrelatorFailure;
                task serviceImpactAnalysis if output serviceImpactAnalysisFailure;
                task serviceImpactResolution if output serviceImpactResolutionFailure
            }
        }
    }
}
"#;

/// §5.2 / Fig. 7: electronic order processing.
pub const ORDER_PROCESSING: &str = r#"
class Order;
class DispatchNote;
class StockInfo;
class PaymentInfo;

taskclass ProcessOrderApplication {
    inputs { input main { order of class Order } };
    outputs {
        outcome orderCompleted { dispatchNote of class DispatchNote };
        outcome orderCancelled { }
    }
}

taskclass PaymentAuthorisation {
    inputs { input main { order of class Order } };
    outputs {
        outcome authorised { paymentInfo of class PaymentInfo };
        outcome notAuthorised { }
    }
}

taskclass CheckStock {
    inputs { input main { order of class Order } };
    outputs {
        outcome stockAvailable { stockInfo of class StockInfo };
        outcome stockNotAvailable { }
    }
}

taskclass Dispatch {
    inputs { input main { stockInfo of class StockInfo } };
    outputs {
        outcome dispatchCompleted { dispatchNote of class DispatchNote };
        abort outcome dispatchFailed { }
    }
}

taskclass PaymentCapture {
    inputs { input main { paymentInfo of class PaymentInfo } };
    outputs {
        outcome done { };
        abort outcome captureFailed { }
    }
}

compoundtask processOrderApplication of taskclass ProcessOrderApplication {
    task paymentAuthorisation of taskclass PaymentAuthorisation {
        implementation { "code" is "refPaymentAuthorisation" };
        inputs {
            input main {
                inputobject order from {
                    order of task processOrderApplication if input main
                }
            }
        }
    };
    task checkStock of taskclass CheckStock {
        implementation { "code" is "refCheckStock" };
        inputs {
            input main {
                inputobject order from {
                    order of task processOrderApplication if input main
                }
            }
        }
    };
    task dispatch of taskclass Dispatch {
        implementation { "code" is "refDispatch" };
        inputs {
            input main {
                notification from {
                    task paymentAuthorisation if output authorised
                };
                inputobject stockInfo from {
                    stockInfo of task checkStock if output stockAvailable
                }
            }
        }
    };
    task paymentCapture of taskclass PaymentCapture {
        implementation { "code" is "refPaymentCapture" };
        inputs {
            input main {
                notification from {
                    task dispatch if output dispatchCompleted
                };
                inputobject paymentInfo from {
                    paymentInfo of task paymentAuthorisation if output authorised
                }
            }
        }
    };
    outputs {
        outcome orderCompleted {
            notification from {
                task paymentCapture if output done
            };
            outputobject dispatchNote from {
                dispatchNote of task dispatch if output dispatchCompleted
            }
        };
        outcome orderCancelled {
            notification from {
                task paymentAuthorisation if output notAuthorised;
                task checkStock if output stockNotAvailable;
                task dispatch if output dispatchFailed
            }
        }
    }
}
"#;

/// §5.3 / Figs. 8–9: the business trip application — redundant airline
/// queries, a compound repeat loop, compensation and a mark output.
pub const BUSINESS_TRIP: &str = r#"
class User;
class TripData;
class FlightList;
class Plane;
class Hotel;
class Cost;
class Tickets;

taskclass TripReservation {
    inputs { input main { user of class User } };
    outputs {
        outcome booked { tickets of class Tickets };
        outcome notBooked { };
        mark toPay { cost of class Cost }
    }
}

taskclass BusinessReservation {
    inputs { input main { user of class User } };
    outputs {
        outcome success { plane of class Plane; hotel of class Hotel; cost of class Cost };
        outcome failed { };
        repeat outcome retry { user of class User }
    }
}

taskclass DataAcquisition {
    inputs { input main { user of class User } };
    outputs {
        outcome acquired { tripData of class TripData };
        outcome dataFailure { }
    }
}

taskclass CheckFlightReservation {
    inputs { input main { tripData of class TripData } };
    outputs {
        outcome flightFound { flightList of class FlightList };
        outcome noFlight { }
    }
}

taskclass AirlineQuery {
    inputs { input main { tripData of class TripData } };
    outputs {
        outcome found { flightList of class FlightList };
        outcome notFound { }
    }
}

taskclass FlightReservation {
    inputs { input main { flightList of class FlightList } };
    outputs {
        outcome reserved { plane of class Plane; cost of class Cost };
        outcome reservationFailed { }
    }
}

taskclass HotelReservation {
    inputs { input main { plane of class Plane } };
    outputs {
        outcome hotelBooked { hotel of class Hotel };
        outcome failed { }
    }
}

taskclass FlightCancellation {
    inputs { input main { plane of class Plane } };
    outputs {
        outcome cancelled { }
    }
}

taskclass PrintTickets {
    inputs { input main { plane of class Plane; hotel of class Hotel } };
    outputs {
        outcome printed { tickets of class Tickets }
    }
}

compoundtask tripReservation of taskclass TripReservation {
    compoundtask businessReservation of taskclass BusinessReservation {
        inputs {
            input main {
                inputobject user from {
                    user of task tripReservation if input main;
                    user of task businessReservation if output retry
                }
            }
        };
        task dataAcquisition of taskclass DataAcquisition {
            implementation { "code" is "refDataAcquisition" };
            inputs {
                input main {
                    inputobject user from {
                        user of task businessReservation if input main
                    }
                }
            }
        };
        compoundtask checkFlightReservation of taskclass CheckFlightReservation {
            inputs {
                input main {
                    inputobject tripData from {
                        tripData of task dataAcquisition if output acquired
                    }
                }
            };
            task airlineQueryA of taskclass AirlineQuery {
                implementation { "code" is "refAirlineQueryA" };
                inputs {
                    input main {
                        inputobject tripData from {
                            tripData of task checkFlightReservation if input main
                        }
                    }
                }
            };
            task airlineQueryB of taskclass AirlineQuery {
                implementation { "code" is "refAirlineQueryB" };
                inputs {
                    input main {
                        inputobject tripData from {
                            tripData of task checkFlightReservation if input main
                        }
                    }
                }
            };
            task airlineQueryC of taskclass AirlineQuery {
                implementation { "code" is "refAirlineQueryC" };
                inputs {
                    input main {
                        inputobject tripData from {
                            tripData of task checkFlightReservation if input main
                        }
                    }
                }
            };
            outputs {
                outcome flightFound {
                    outputobject flightList from {
                        flightList of task airlineQueryA if output found;
                        flightList of task airlineQueryB if output found;
                        flightList of task airlineQueryC if output found
                    }
                };
                outcome noFlight {
                    notification from { task airlineQueryA if output notFound };
                    notification from { task airlineQueryB if output notFound };
                    notification from { task airlineQueryC if output notFound }
                }
            }
        };
        task flightReservation of taskclass FlightReservation {
            implementation { "code" is "refFlightReservation" };
            inputs {
                input main {
                    inputobject flightList from {
                        flightList of task checkFlightReservation if output flightFound
                    }
                }
            }
        };
        task hotelReservation of taskclass HotelReservation {
            implementation { "code" is "refHotelReservation" };
            inputs {
                input main {
                    inputobject plane from {
                        plane of task flightReservation if output reserved
                    }
                }
            }
        };
        task flightCancellation of taskclass FlightCancellation {
            implementation { "code" is "refFlightCancellation" };
            inputs {
                input main {
                    notification from {
                        task hotelReservation if output failed
                    };
                    inputobject plane from {
                        plane of task flightReservation
                    }
                }
            }
        };
        outputs {
            outcome success {
                outputobject plane from {
                    plane of task flightReservation if output reserved
                };
                outputobject hotel from {
                    hotel of task hotelReservation if output hotelBooked
                };
                outputobject cost from {
                    cost of task flightReservation if output reserved
                }
            };
            outcome failed {
                notification from {
                    task dataAcquisition if output dataFailure;
                    task checkFlightReservation if output noFlight;
                    task flightReservation if output reservationFailed
                }
            };
            repeat outcome retry {
                outputobject user from {
                    user of task businessReservation if input main
                };
                notification from {
                    task flightCancellation if output cancelled
                }
            }
        }
    };
    task printTickets of taskclass PrintTickets {
        implementation { "code" is "refPrintTickets" };
        inputs {
            input main {
                inputobject plane from {
                    plane of task businessReservation if output success
                };
                inputobject hotel from {
                    hotel of task businessReservation if output success
                }
            }
        }
    };
    outputs {
        outcome booked {
            outputobject tickets from {
                tickets of task printTickets if output printed
            }
        };
        outcome notBooked {
            notification from {
                task businessReservation if output failed
            }
        };
        mark toPay {
            outputobject cost from {
                cost of task businessReservation if output success
            }
        }
    }
}
"#;

/// All named samples, for data-driven tests.
pub fn all() -> Vec<(&'static str, &'static str)> {
    vec![
        ("quickstart", QUICKSTART),
        ("fig1_diamond", FIG1_DIAMOND),
        ("service_impact", SERVICE_IMPACT),
        ("order_processing", ORDER_PROCESSING),
        ("business_trip", BUSINESS_TRIP),
    ]
}

/// The root compound task name for each sample.
pub fn root_of(sample: &str) -> &'static str {
    match sample {
        "quickstart" => "pipeline",
        "fig1_diamond" => "diamond",
        "service_impact" => "serviceImpactApplication",
        "order_processing" => "processOrderApplication",
        "business_trip" => "tripReservation",
        other => panic!("unknown sample {other}"),
    }
}

/// A linear chain of `n` stages, `s0 → s1 → … → s{n-1}`, under a `root`
/// compound of task class `Chain`. Stage `s{i}` is bound to code
/// `ref{i}`; every object is of class `Data`. The text is in
/// [`crate::fmt`]'s canonical form.
pub fn chain(n: usize) -> String {
    let mut out = String::from("class Data;\n\n");
    taskclass(&mut out, "Stage", &["in"]);
    out.push('\n');
    taskclass(&mut out, "Chain", &["seed"]);
    out.push_str("\ncompoundtask root of taskclass Chain {\n");
    for i in 0..n {
        let from = match i {
            0 => "seed of task root if input main".to_string(),
            _ => format!("out of task s{} if output done", i - 1),
        };
        let (name, code) = (format!("s{i}"), format!("ref{i}"));
        task(&mut out, &name, "Stage", &code, &[("in", from)]);
    }
    root_outputs(&mut out, &format!("s{}", n.saturating_sub(1)));
    out
}

/// A fan-out/fan-in of `width` parallel stages under a `root` compound of
/// task class `Fan`: `source` (code `refSource`) feeds every `w{i}` (code
/// `refW{i}`), and `join` (code `refJoin`) takes each `w{i}`'s output as
/// its input `in{i}`. The text is in [`crate::fmt`]'s canonical form.
pub fn fan(width: usize) -> String {
    let joined: Vec<String> = (0..width).map(|i| format!("in{i}")).collect();
    let mut out = String::from("class Data;\n\n");
    taskclass(&mut out, "Stage", &["in"]);
    out.push('\n');
    taskclass(&mut out, "Join", &joined);
    out.push('\n');
    taskclass(&mut out, "Fan", &["seed"]);
    out.push_str("\ncompoundtask root of taskclass Fan {\n");
    let seed = "seed of task root if input main".to_string();
    task(&mut out, "source", "Stage", "refSource", &[("in", seed)]);
    for i in 0..width {
        let from = "out of task source if output done".to_string();
        let (name, code) = (format!("w{i}"), format!("refW{i}"));
        task(&mut out, &name, "Stage", &code, &[("in", from)]);
    }
    let join_inputs: Vec<(&str, String)> = joined
        .iter()
        .enumerate()
        .map(|(i, object)| (object.as_str(), format!("out of task w{i} if output done")))
        .collect();
    task(&mut out, "join", "Join", "refJoin", &join_inputs);
    root_outputs(&mut out, "join");
    out
}

/// `";"` between the elements of a list, nothing after the last.
fn separator(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ";"
    } else {
        ""
    }
}

/// A task class whose input set `main` takes each of `inputs` as a `Data`
/// object, and whose one outcome `done` carries `out of class Data`.
fn taskclass<S: AsRef<str>>(out: &mut String, name: &str, inputs: &[S]) {
    let _ = writeln!(
        out,
        "taskclass {name} {{\n    inputs {{\n        input main {{"
    );
    for (i, input) in inputs.iter().enumerate() {
        let (input, sep) = (input.as_ref(), separator(i, inputs.len()));
        let _ = writeln!(out, "            {input} of class Data{sep}");
    }
    out.push_str("        }\n    };\n    outputs {\n        outcome done {\n");
    out.push_str("            out of class Data\n        }\n    }\n}\n");
}

/// A constituent task of `root` bound to `code`, whose input set `main`
/// takes each `(object, source)` from its one source.
fn task(out: &mut String, name: &str, class: &str, code: &str, inputs: &[(&str, String)]) {
    let _ = writeln!(out, "    task {name} of taskclass {class} {{");
    let _ = writeln!(out, "        implementation {{ \"code\" is \"{code}\" }};");
    out.push_str("        inputs {\n            input main {\n");
    for (i, (object, source)) in inputs.iter().enumerate() {
        let sep = separator(i, inputs.len());
        let _ = writeln!(out, "                inputobject {object} from {{");
        let _ = writeln!(out, "                    {source}\n                }}{sep}");
    }
    out.push_str("            }\n        }\n    };\n");
}

/// `root`'s outputs, one outcome `done` taking `out` from `last`'s `done`,
/// and the compound's closing brace.
fn root_outputs(out: &mut String, last: &str) {
    out.push_str("    outputs {\n        outcome done {\n            outputobject out from {\n");
    let _ = writeln!(out, "                out of task {last} if output done");
    out.push_str("            }\n        }\n    }\n}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fmt::format_script;
    use crate::{parse, schema, sema};

    /// Parses a generated text, checks it is canonical, and returns its
    /// compiled leaf count.
    fn leaves(text: &str) -> usize {
        let script = parse(text).unwrap_or_else(|d| panic!("{}\n{text}", d.render(text)));
        assert_eq!(format_script(&script), text, "not in canonical form");
        let checked = sema::check(&script).unwrap_or_else(|d| panic!("{d}"));
        schema::compile(&checked, "root").unwrap().leaf_count()
    }

    #[test]
    fn chain_is_canonical_and_compiles() {
        for n in [1, 2, 10, 50, 400] {
            assert_eq!(leaves(&chain(n)), n, "chain({n})");
        }
    }

    #[test]
    fn fan_is_canonical_and_compiles() {
        for width in [1, 4, 16, 64] {
            assert_eq!(leaves(&fan(width)), width + 2, "fan({width})");
        }
    }

    #[test]
    fn every_sample_parses() {
        for (name, source) in all() {
            match parse(source) {
                Ok(script) => assert!(!script.items.is_empty(), "{name} is empty"),
                Err(diags) => panic!("{name} failed to parse:\n{}", diags.render(source)),
            }
        }
    }

    #[test]
    fn roots_exist_in_samples() {
        for (name, source) in all() {
            let script = parse(source).unwrap();
            let root = root_of(name);
            assert!(
                script.find_compound(root).is_some(),
                "{name}: root {root} missing"
            );
        }
    }
}
