package repro.events

import org.apache.spark.sql.types._

/** Flat relational schema for system-monitoring events (the paper's SVO model).
  *
  * Each event is one interaction ⟨subject, operation, object⟩ observed on one
  * host (`agent_id`) at one time (`ts`, epoch millis). Subjects are always
  * processes; objects are processes, files, or network connections, which
  * yields the paper's three event types (process / file / network events).
  *
  * The object's attributes live in type-specific nullable columns — exactly
  * one group is populated per row, selected by `obj_type`. `day` is derived
  * from `ts` and is the temporal partition key of [[EventStore]]; `agent_id`
  * is the spatial one.
  */
object EventSchema {

  /** Object-entity kinds (`obj_type` values). */
  object Kind {
    val Proc = "proc"
    val File = "file"
    val Ip   = "ip"
  }

  val schema: StructType = StructType(Seq(
    StructField("event_id", LongType,    nullable = false),
    StructField("agent_id", IntegerType, nullable = false),
    StructField("ts",       LongType,    nullable = false),
    StructField("op",       StringType,  nullable = false),
    StructField("subj_pid", LongType,    nullable = false),
    StructField("subj_exe", StringType,  nullable = false),
    StructField("obj_type", StringType,  nullable = false),
    StructField("obj_pid",  LongType,    nullable = true),
    StructField("obj_exe",  StringType,  nullable = true),
    StructField("obj_path", StringType,  nullable = true),
    StructField("src_ip",   StringType,  nullable = true),
    StructField("dst_ip",   StringType,  nullable = true),
    StructField("src_port", IntegerType, nullable = true),
    StructField("dst_port", IntegerType, nullable = true),
    StructField("amount",   LongType,    nullable = true),
    StructField("day",      StringType,  nullable = false),
  ))

  /** All column names, in schema order. */
  val columns: Seq[String] = schema.fields.map(_.name).toSeq

  /** Columns identifying a logical event for deduplication: repeated
    * identical interactions within the same millisecond collapse (the paper
    * dedups identical events at ingestion to cut storage).
    */
  val dedupKey: Seq[String] =
    Seq("agent_id", "ts", "op", "subj_pid", "subj_exe",
        "obj_type", "obj_pid", "obj_exe", "obj_path", "dst_ip", "dst_port")

  /** Numeric columns — the DuckDB oracle stores everything as VARCHAR, so
    * synthesized DuckDB SQL must CAST these before comparisons.
    */
  val numericColumns: Set[String] =
    Set("event_id", "agent_id", "ts", "subj_pid", "obj_pid",
        "src_port", "dst_port", "amount")

  /** Millis per day, for `day` derivation and window math. */
  val DayMillis: Long = 24L * 3600 * 1000
}
