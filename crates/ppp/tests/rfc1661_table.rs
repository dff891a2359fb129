//! RFC 1661 §4.1's state transition table, as data, against
//! [`Automaton`] cell by cell: 10 states × 16 events.
//!
//! Each cell is written as the RFC prints it: `-` for an event that
//! cannot occur in that state, else the actions (comma-separated, in
//! order) and the next state's number after a `/`.  The RFC's
//! annotation letters (`r` restart option, `p` passive option, `x`
//! crossed connection) follow the number and are not checked.

use p5_ppp::{Action, Automaton, Event, State};

const STATES: [State; 10] = [
    State::Initial,
    State::Starting,
    State::Closed,
    State::Stopped,
    State::Closing,
    State::Stopping,
    State::ReqSent,
    State::AckRcvd,
    State::AckSent,
    State::Opened,
];

/// Columns 0–9 are the RFC's state numbers, in [`STATES`] order.
const TABLE: &str = "
       0      1          2      3           4      5      6          7          8          9
Up     2      irc,scr/6  -      -           -      -      -          -          -          -
Down   -      -          0      tls/1       0      1      1          1          1          tld/1
Open   tls/1  1          irc,scr/6 3r       5r     5r     6          7          8          9r
Close  0      tlf/0      2      2           4      4      irc,str/4  irc,str/4  irc,str/4  tld,irc,str/4
TO+    -      -          -      -           str/4  str/5  scr/6      scr/6      scr/8      -
TO-    -      -          -      -           tlf/2  tlf/3  tlf/3p     tlf/3p     tlf/3p     -
RCR+   -      -          sta/2  irc,scr,sca/8 4    5      sca/8      sca,tlu/9  sca/8      tld,scr,sca/8
RCR-   -      -          sta/2  irc,scr,scn/6 4    5      scn/6      scn/7      scn/6      tld,scr,scn/6
RCA    -      -          sta/2  sta/3       4      5      irc/7      scr/6x     irc,tlu/9  tld,scr/6x
RCN    -      -          sta/2  sta/3       4      5      irc,scr/6  scr/6      irc,scr/8  tld,scr/6
RTR    -      -          sta/2  sta/3       sta/4  sta/5  sta/6      sta/6      sta/6      tld,zrc,sta/5
RTA    -      -          2      3           tlf/2  tlf/3  6          6          8          tld,scr/6
RUC    -      -          scj/2  scj/3       scj/4  scj/5  scj/6      scj/7      scj/8      scj/9
RXJ+   -      -          2      3           4      5      6          6          8          9
RXJ-   -      -          tlf/2  tlf/3       tlf/2  tlf/3  tlf/3      tlf/3      tlf/3      tld,irc,str/5
RXR    -      -          2      3           4      5      6          7          8          ser/9
";

fn event(name: &str) -> Event {
    match name {
        "Up" => Event::Up,
        "Down" => Event::Down,
        "Open" => Event::Open,
        "Close" => Event::Close,
        "TO+" => Event::TimeoutRetry,
        "TO-" => Event::TimeoutGiveUp,
        "RCR+" => Event::RcrGood,
        "RCR-" => Event::RcrBad,
        "RCA" => Event::Rca,
        "RCN" => Event::Rcn,
        "RTR" => Event::Rtr,
        "RTA" => Event::Rta,
        "RUC" => Event::Ruc,
        "RXJ+" => Event::RxjGood,
        "RXJ-" => Event::RxjBad,
        "RXR" => Event::Rxr,
        _ => panic!("unknown event {name}"),
    }
}

fn action(name: &str) -> Action {
    match name {
        "tlu" => Action::ThisLayerUp,
        "tld" => Action::ThisLayerDown,
        "tls" => Action::ThisLayerStarted,
        "tlf" => Action::ThisLayerFinished,
        "irc" => Action::InitRestartCount,
        "zrc" => Action::ZeroRestartCount,
        "scr" => Action::SendConfigureRequest,
        "sca" => Action::SendConfigureAck,
        "scn" => Action::SendConfigureNak,
        "str" => Action::SendTerminateRequest,
        "sta" => Action::SendTerminateAck,
        "scj" => Action::SendCodeReject,
        "ser" => Action::SendEchoReply,
        _ => panic!("unknown action {name}"),
    }
}

/// One cell: `None` for "cannot occur", else the actions and next state.
fn cell(text: &str) -> Option<(Vec<Action>, State)> {
    if text == "-" {
        return None;
    }
    let (actions, next) = text.rsplit_once('/').unwrap_or(("", text));
    let actions = actions.split(',').filter(|a| !a.is_empty()).map(action);
    let digit = next.chars().next().and_then(|c| c.to_digit(10));
    let next = STATES[digit.unwrap_or_else(|| panic!("bad cell {text}")) as usize];
    Some((actions.collect(), next))
}

/// A machine driven from Initial into `state`, by the shortest event
/// path the table itself gives.
fn machine_in(state: State) -> Automaton {
    use Event::*;
    let path: &[Event] = match state {
        State::Initial => &[],
        State::Starting => &[Open],
        State::Closed => &[Up],
        State::Stopped => &[Open, Up, TimeoutGiveUp],
        State::Closing => &[Open, Up, Close],
        State::Stopping => &[Open, Up, Close, Open],
        State::ReqSent => &[Open, Up],
        State::AckRcvd => &[Open, Up, Rca],
        State::AckSent => &[Open, Up, RcrGood],
        State::Opened => &[Open, Up, RcrGood, Rca],
    };
    let mut a = Automaton::new();
    for &e in path {
        a.handle(e).expect("path event can occur");
    }
    assert_eq!(a.state(), state, "path {path:?}");
    a
}

#[test]
fn automaton_matches_rfc1661_transition_table_cell_by_cell() {
    let mut rows = TABLE.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<&str> = rows.next().unwrap().split_whitespace().collect();
    assert_eq!(header, ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9"]);
    let mut cells = 0;
    for row in rows {
        let mut fields = row.split_whitespace();
        let ev = event(fields.next().unwrap());
        let row_cells: Vec<&str> = fields.collect();
        assert_eq!(row_cells.len(), STATES.len(), "row {ev:?}");
        for (&state, &text) in STATES.iter().zip(&row_cells) {
            let mut a = machine_in(state);
            let got = a.handle(ev).ok().map(|actions| (actions, a.state()));
            assert_eq!(got, cell(text), "{ev:?} in {state:?} (RFC cell `{text}`)");
            cells += 1;
        }
    }
    assert_eq!(cells, 10 * 16);
}
