package repro.core

import java.time.format.DateTimeFormatter
import java.time.{LocalDate, LocalDateTime, ZoneOffset}

import repro.events.EventSchema

/** Attribute model: maps AIQL entity/event attribute names onto columns of
  * the flat event schema, implementing the paper's syntax shortcuts
  * (`p1` → `p1.exe_name`, `f1` → `f1.name`, `i1` → `i1.dst_ip`).
  *
  * A process variable may be the *subject* of one event and the *object* of
  * another (`… start proc p2 as evt1` / `proc p2 read … as evt2`), so
  * resolution is role-dependent: the same attribute lands on `subj_*` or
  * `obj_*` columns. Entity identity for joins: processes by pid (per host),
  * files by path (per host), network connections by destination IP (global —
  * a connection is visible from both endpoints, which is what lets dependency
  * queries track across hosts).
  */
object Attrs {

  final case class ResolveError(msg: String) extends RuntimeException(msg)

  /** Event-level attributes (`evt1.ts`, `evt.amount`) → schema columns. */
  def eventAttr(attr: String): String = attr match {
    case "ts" | "time" | "timestamp" => "ts"
    case "amount"                    => "amount"
    case "op" | "operation"          => "op"
    case "agentid" | "agent_id"      => "agent_id"
    case "id" | "event_id"           => "event_id"
    case other                       => throw ResolveError(s"unknown event attribute '$other'")
  }

  /** Entity attribute → schema column, given kind ∈ {proc,file,ip} and
    * role ∈ {subj,obj}. Empty attr = the kind's default attribute.
    */
  def entityAttr(kind: String, role: String, attr: String): String = kind match {
    case "proc" =>
      val a = if (attr.isEmpty) "exe_name" else attr
      a match {
        case "exe_name" | "exe" | "name" => if (role == "subj") "subj_exe" else "obj_exe"
        case "pid"                       => if (role == "subj") "subj_pid" else "obj_pid"
        case other => throw ResolveError(s"unknown proc attribute '$other'")
      }
    case "file" =>
      if (role != "obj") throw ResolveError("file entities only occur as objects")
      val a = if (attr.isEmpty) "name" else attr
      a match {
        case "name" | "path" => "obj_path"
        case other => throw ResolveError(s"unknown file attribute '$other'")
      }
    case "ip" =>
      if (role != "obj") throw ResolveError("ip entities only occur as objects")
      val a = if (attr.isEmpty) "dst_ip" else attr
      a match {
        case "dst_ip" | "dstip" | "ip"  => "dst_ip"
        case "src_ip" | "srcip"         => "src_ip"
        case "dst_port" | "dstport" | "port" => "dst_port"
        case "src_port" | "srcport"     => "src_port"
        case other => throw ResolveError(s"unknown ip attribute '$other'")
      }
    case other => throw ResolveError(s"unknown entity kind '$other'")
  }

  /** Identity column(s) used to join the same entity variable across events. */
  def joinKey(kind: String, role: String): String = kind match {
    case "proc" => if (role == "subj") "subj_pid" else "obj_pid"
    case "file" => "obj_path"
    case "ip"   => "dst_ip"
    case other  => throw ResolveError(s"unknown entity kind '$other'")
  }

  /** Entities whose identity is host-local: joining them across events also
    * equates `agent_id`. Network connections are cross-host (identity is the
    * destination IP), so they do not force agent equality — this is exactly
    * what lets dependency queries follow a `connect` across hosts.
    */
  def isHostLocal(kind: String): Boolean = kind != "ip"
}

/** Time-window parsing for global clauses. Dates use the paper's
  * `mm/dd/yyyy` form, optionally with `HH:mm:ss`; all UTC.
  */
object Times {
  private val dateFmt = DateTimeFormatter.ofPattern("MM/dd/yyyy")
  private val dateTimeFmt = DateTimeFormatter.ofPattern("MM/dd/yyyy HH:mm:ss")

  /** Parse a global time literal to epoch millis (UTC). */
  def parseMs(s: String): Long = {
    val t = s.trim
    if (t.contains(":"))
      LocalDateTime.parse(t, dateTimeFmt).toInstant(ZoneOffset.UTC).toEpochMilli
    else
      LocalDate.parse(t, dateFmt).atStartOfDay.toInstant(ZoneOffset.UTC).toEpochMilli
  }

  /** The half-open [start, end) window of the global clauses; `(at "d")` is
    * the whole day d. Multiple time globals intersect.
    */
  def window(globals: Seq[Ast.Global]): Option[(Long, Long)] = {
    val ws = globals.collect {
      case Ast.TimeAt(d)       => val s = parseMs(d); (s, s + EventSchema.DayMillis)
      case Ast.TimeFromTo(f, t) => (parseMs(f), parseMs(t))
    }
    if (ws.isEmpty) None
    else Some((ws.map(_._1).max, ws.map(_._2).min))
  }

  /** Days (yyyy-MM-dd strings) covered by the window — the temporal
    * partition values to prune to.
    */
  def daysOf(startMs: Long, endMs: Long): Seq[String] = {
    val day = EventSchema.DayMillis
    val first = math.floorDiv(startMs, day)
    val last  = math.floorDiv(math.max(startMs, endMs - 1), day)
    (first to last).map { d =>
      java.time.Instant.ofEpochMilli(d * day).atZone(ZoneOffset.UTC).toLocalDate.toString
    }
  }

  /** Agent ids bound by the globals, if any. */
  def agents(globals: Seq[Ast.Global]): Option[Seq[Int]] = {
    val as = globals.collect { case Ast.AgentIn(ids) => ids }
    if (as.isEmpty) None else Some(as.flatten.distinct)
  }
}
