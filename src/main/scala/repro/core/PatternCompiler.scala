package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

import Ast._

/** Compiles one event pattern (and the query's global constraints) into a
  * Catalyst predicate over the raw event schema — the per-pattern "data
  * query" of the paper's engine (§2.3): instead of weaving all patterns into
  * one big join for the default scheduler, each pattern becomes an
  * independently executable filtered scan.
  */
object PatternCompiler {

  final case class CompileError(msg: String) extends RuntimeException(msg)

  /** Predicate selecting raw events that match the pattern. */
  def compile(e: EventPat): Column = {
    if (e.subj.kind != "proc")
      throw CompileError(s"subject of '${e.alias}' must be a proc (SVO model)")
    var pred = col("op") === e.op && col("obj_type") === e.obj.kind
    for (f <- e.subj.filter) pred = pred && filterPred(e.subj, "subj", f)
    for (f <- e.obj.filter)  pred = pred && filterPred(e.obj, "obj", f)
    if (e.subj.name == e.obj.name)
      pred = pred && col(Attrs.joinKey(e.subj.kind, "subj")) === col(Attrs.joinKey(e.obj.kind, "obj"))
    pred
  }

  /** Entity filter expression → predicate over raw columns, resolving bare
    * attribute names in the entity's role.
    */
  def filterPred(ent: EntityPat, role: String, f: Expr): Column =
    ExprEval.toColumn(f, leaf => col(Scope.filterColumn(ent, role)(leaf)))

  /** Global constraints (time window + agents) as a residual predicate. The
    * engine additionally prunes partitions with the same bounds when reading
    * from a partitioned store.
    */
  def globalPred(globals: Seq[Global]): Column = {
    var pred = lit(true)
    for ((s, t) <- Times.window(globals)) pred = pred && col("ts") >= s && col("ts") < t
    for (as <- Times.agents(globals)) pred = pred && col("agent_id").isin(as: _*)
    pred
  }
}
