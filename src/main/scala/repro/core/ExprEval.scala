package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

import Ast._

/** Translates AIQL expressions to Catalyst [[Column]]s.
  *
  * Leaves that need context ([[VarRef]], [[AttrRef]], [[HistRef]], [[Agg]])
  * are resolved by a caller-supplied function — entity filters resolve them
  * against raw schema columns, return/having clauses against per-event
  * prefixed columns or aggregate aliases.
  *
  * String equality against a literal containing `%` means LIKE-matching
  * (AIQL's `["%cmd.exe"]` and `[dstip = "10.0.0.1"]` both use `=`); the
  * parser puts such a literal on the right.
  */
object ExprEval {

  final case class EvalError(msg: String) extends RuntimeException(msg)

  def toColumn(e: Expr, resolve: Expr => Column): Column = e match {
    case NumLit(t) if NumLit(t).isIntegral => lit(t.toLong)
    case NumLit(t)                         => lit(t.toDouble)
    case StrLit(s)                         => lit(s)
    case Bin("=", l, StrLit(s)) if s.contains("%") => toColumn(l, resolve).like(s)
    case Bin("!=", l, StrLit(s)) if s.contains("%") => !toColumn(l, resolve).like(s)
    case Bin(op, l, r) =>
      val (lc, rc) = (toColumn(l, resolve), toColumn(r, resolve))
      op match {
        case "="  => lc === rc
        case "!=" => lc =!= rc
        case "<"  => lc < rc
        case "<=" => lc <= rc
        case ">"  => lc > rc
        case ">=" => lc >= rc
        case "+"  => lc + rc
        case "-"  => lc - rc
        case "*"  => lc * rc
        case "/"  => lc / rc
        case "&&" => lc && rc
        case "||" => lc || rc
        case other => throw EvalError(s"unknown operator '$other'")
      }
    case Not(x) => !toColumn(x, resolve)
    case leaf   => resolve(leaf)
  }

  /** Spark aggregate function for an [[Agg]] node over an argument column. */
  def aggColumn(func: String, arg: Column): Column = func match {
    case "avg"   => avg(arg)
    case "sum"   => sum(arg)
    case "count" => count(arg)
    case "min"   => min(arg)
    case "max"   => max(arg)
    case other   => throw EvalError(s"unknown aggregate '$other'")
  }

  /** Does the expression contain an aggregate call? */
  def hasAgg(e: Expr): Boolean = e match {
    case Agg(_, _)    => true
    case Bin(_, l, r) => hasAgg(l) || hasAgg(r)
    case Not(x)       => hasAgg(x)
    case _            => false
  }
}
