package repro.core

/** Abstract syntax of the AIQL language (the subset demonstrated in the
  * paper: multievent, dependency, and anomaly queries).
  */
object Ast {

  // ---------------------------------------------------------------- exprs

  /** Expressions appear in entity filters (`[dstip = "x.129"]`), return
    * items (`avg(evt.amount) as amt`), `group by`, and `having` clauses
    * (including historical-window references `amt[1]`).
    */
  sealed trait Expr

  /** Numeric literal; the original text is kept for faithful SQL emission. */
  final case class NumLit(text: String) extends Expr {
    def isIntegral: Boolean = !text.exists(c => c == '.' || c == 'e' || c == 'E')
  }

  /** String literal; a `%` makes comparisons LIKE-matching. */
  final case class StrLit(value: String) extends Expr

  /** Bare variable reference — an entity (`p1`, shortcut for its default
    * attribute) or an aggregate alias inside `having`.
    */
  final case class VarRef(name: String) extends Expr

  /** Qualified attribute reference: `p1.exe_name`, `evt.amount`. */
  final case class AttrRef(varName: String, attr: String) extends Expr

  /** Historical aggregate access in anomaly `having`: `amt[k]` is the value
    * of aggregate alias `amt` for the same group, `k` windows earlier.
    */
  final case class HistRef(alias: String, k: Int) extends Expr

  /** Aggregation call: avg/sum/count/min/max. `count` may take a bare event
    * variable (`count(evt)`), meaning count of matched events.
    */
  final case class Agg(func: String, arg: Expr) extends Expr

  /** Binary operation. `op` ∈ {+,-,*,/, =, !=, <, <=, >, >=, &&, ||}. */
  final case class Bin(op: String, left: Expr, right: Expr) extends Expr

  final case class Not(e: Expr) extends Expr

  // ------------------------------------------------------------- patterns

  /** Entity occurrence in an event pattern: kind ∈ {proc, file, ip}, a
    * variable name, and an optional filter expression whose `AttrRef`s are
    * already qualified with the variable name. A filter written as a bare
    * string (`proc p1["%cmd.exe"]`) parses to a default-attribute match
    * (`AttrRef(p1, "")` = default attr, resolved by [[Attrs]]).
    */
  final case class EntityPat(kind: String, name: String, filter: Option[Expr])

  /** One event pattern line: `proc p1[…] start proc p2[…] as evt1`. */
  final case class EventPat(subj: EntityPat, op: String, obj: EntityPat, alias: String)

  /** Temporal relationship between two declared events: rel ∈ {before, after}. */
  final case class TempRel(left: String, rel: String, right: String)

  final case class ReturnItem(expr: Expr, alias: Option[String])

  // -------------------------------------------------------------- globals

  sealed trait Global
  /** `(at "mm/dd/yyyy")` — one-day time window. */
  final case class TimeAt(date: String) extends Global
  /** `(from "mm/dd/yyyy hh:mm:ss" to "…")` — explicit time window. */
  final case class TimeFromTo(from: String, to: String) extends Global
  /** `agentid = 4` or `agentid in (1, 2)` — spatial constraint. */
  final case class AgentIn(ids: Seq[Int]) extends Global

  // -------------------------------------------------------------- queries

  sealed trait Query {
    def globals: Seq[Global]
    def returns: Seq[ReturnItem]
  }

  /** Multievent query: event patterns + temporal relationships + implicit
    * attribute relationships through shared entity variables.
    */
  final case class MultiEventQuery(
      globals: Seq[Global],
      events: Seq[EventPat],
      temps: Seq[TempRel],
      returns: Seq[ReturnItem],
      groupBy: Seq[Expr],
      having: Option[Expr],
  ) extends Query

  /** Dependency query: a `forward`/`backward` chain of event patterns; the
    * parser-level sugar compiles to a [[MultiEventQuery]] whose temporal
    * relationships chain consecutive events ([[DependencyCompiler]]).
    */
  final case class DependencyQuery(
      globals: Seq[Global],
      direction: String, // "forward" | "backward"
      events: Seq[EventPat],
      returns: Seq[ReturnItem],
  ) extends Query

  /** Anomaly query: one event pattern aggregated over sliding windows. */
  final case class AnomalyQuery(
      globals: Seq[Global],
      windowMs: Long,
      stepMs: Long,
      event: EventPat,
      returns: Seq[ReturnItem],
      groupBy: Seq[Expr],
      having: Option[Expr],
  ) extends Query

  // -------------------------------------------------------------- helpers

  /** All entity variable occurrences of a pattern as (name, kind, role);
    * role ∈ {subj, obj}.
    */
  def entityOccurrences(e: EventPat): Seq[(String, String, String)] =
    Seq((e.subj.name, e.subj.kind, "subj"), (e.obj.name, e.obj.kind, "obj"))

  /** Every historical reference `alias[k]` in an expression, as (alias, k). */
  def collectHists(e: Expr): Seq[(String, Int)] = e match {
    case HistRef(a, k) => Seq((a, k))
    case Bin(_, l, r)  => collectHists(l) ++ collectHists(r)
    case Not(x)        => collectHists(x)
    case Agg(_, a)     => collectHists(a)
    case _             => Seq.empty
  }
}
