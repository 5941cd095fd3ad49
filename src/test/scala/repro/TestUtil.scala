package repro

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation

/** Shared assertion helpers for comparing DataFrames across execution paths
  * (optimized engine vs naive SQL baseline) through [[Oracle.canon]]:
  * column order normalized, rows stringified and sorted.
  */
object TestUtil {

  def canon(df: DataFrame): Seq[Seq[String]] = Oracle.canon(df.collect().toSeq, df.columns.toSeq)

  /** Assert both frames hold the same multiset of rows (same columns up to
    * order).
    */
  def assertSameRows(a: DataFrame, b: DataFrame, hint: String = ""): Unit = {
    require(a.columns.sorted.toSeq == b.columns.sorted.toSeq,
      s"$hint column mismatch: ${a.columns.sorted.toSeq} vs ${b.columns.sorted.toSeq}")
    val ca = canon(a)
    val cb = canon(b)
    require(ca == cb,
      s"$hint row mismatch (${ca.size} vs ${cb.size}):\n" +
      s"  a-only: ${ca.diff(cb).take(3)}\n  b-only: ${cb.diff(ca).take(3)}")
  }

  /** Does some row bind the named columns to the expected values? */
  def containsBinding(df: DataFrame, expect: Map[String, String]): Boolean = {
    val cols = df.columns.toSeq
    val idx = expect.keys.map(k => k -> cols.indexOf(k)).toMap
    require(idx.values.forall(_ >= 0), s"missing columns ${expect.keys.filter(idx(_) < 0)} in ${cols}")
    df.collect().exists { r: Row =>
      expect.forall { case (k, v) => Option(r.get(idx(k))).map(_.toString).contains(v) }
    }
  }

  /** Is `df` computed from rows already in the driver (local relations
    * only), as the engine returns a query it joined in the driver?
    */
  def isDriverLocal(df: DataFrame): Boolean =
    df.queryExecution.analyzed.collectLeaves().forall(_.isInstanceOf[LocalRelation])
}
